// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "obs/latency_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace monoclass {
namespace obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lock-free min/max/add via compare-exchange: contention is rare (one
// update per solve / pool task / shard, not per element).
void AtomicMin(mc::atomic<double>& target, double value) {
  double current = target.load(mc::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       mc::memory_order_relaxed)) {
  }
}

void AtomicMax(mc::atomic<double>& target, double value) {
  double current = target.load(mc::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       mc::memory_order_relaxed)) {
  }
}

void AtomicAdd(mc::atomic<double>& target, double delta) {
  double current = target.load(mc::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       mc::memory_order_relaxed)) {
  }
}

}  // namespace

LatencyHistogram::LatencyHistogram() : min_(kInf), max_(-kInf) {}

int LatencyHistogram::BucketIndex(double value_us) {
  if (!(value_us > 0.0)) return 0;  // <= 0 and NaN underflow
  const int exponent = std::ilogb(value_us);
  if (exponent < kMinExponent) return 0;
  if (exponent > kMaxExponent) return kNumBuckets - 1;
  // Mantissa in [1, 2); the linear sub-bucket within the octave.
  const double scaled = std::ldexp(value_us, -exponent);
  int sub = static_cast<int>((scaled - 1.0) * kSubBuckets);
  sub = std::min(std::max(sub, 0), kSubBuckets - 1);
  return 1 + (exponent - kMinExponent) * kSubBuckets + sub;
}

double LatencyHistogram::BucketLowerBound(int bucket) {
  MC_CHECK_GE(bucket, 0);
  MC_CHECK_LT(bucket, kNumBuckets);
  if (bucket == 0) return 0.0;
  if (bucket == kNumBuckets - 1) return std::ldexp(1.0, kMaxExponent + 1);
  const int i = bucket - 1;
  const int exponent = kMinExponent + i / kSubBuckets;
  const int sub = i % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exponent);
}

double LatencyHistogram::BucketUpperBound(int bucket) {
  MC_CHECK_GE(bucket, 0);
  MC_CHECK_LT(bucket, kNumBuckets);
  if (bucket == kNumBuckets - 1) return kInf;
  return BucketLowerBound(bucket + 1);
}

void LatencyHistogram::Observe(double value_us) {
  count_.fetch_add(1, mc::memory_order_relaxed);
  AtomicAdd(sum_, value_us);
  AtomicMin(min_, value_us);
  AtomicMax(max_, value_us);
  buckets_[BucketIndex(value_us)].fetch_add(1, mc::memory_order_relaxed);
}

double LatencyHistogram::Min() const {
  return min_.load(mc::memory_order_relaxed);
}

double LatencyHistogram::Max() const {
  return max_.load(mc::memory_order_relaxed);
}

double LatencyHistogram::Mean() const {
  const uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

uint64_t LatencyHistogram::BucketCount(int bucket) const {
  MC_CHECK_GE(bucket, 0);
  MC_CHECK_LT(bucket, kNumBuckets);
  return buckets_[bucket].load(mc::memory_order_relaxed);
}

double LatencyHistogram::Quantile(double q) const {
  q = std::min(std::max(q, 0.0), 1.0);
  // Load the buckets once; a concurrent Observe() may race the count_
  // read, so the walk uses the bucket total as its own denominator.
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(mc::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t cumulative = 0;
  int bucket = kNumBuckets - 1;
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += counts[b];
    if (cumulative >= rank) {
      bucket = b;
      break;
    }
  }
  const double lower = BucketLowerBound(bucket);
  const double upper = BucketUpperBound(bucket);
  double estimate = std::isinf(upper) ? lower : (lower + upper) / 2.0;
  // Clamp to the exact observed range: tails never extrapolate past the
  // recorded extrema, and a single-valued histogram is reported exactly.
  estimate = std::min(std::max(estimate, Min()), Max());
  return estimate;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  const uint64_t other_count = other.Count();
  if (other_count == 0) return;
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = other.buckets_[b].load(mc::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, mc::memory_order_relaxed);
  }
  count_.fetch_add(other_count, mc::memory_order_relaxed);
  AtomicAdd(sum_, other.Sum());
  AtomicMin(min_, other.Min());
  AtomicMax(max_, other.Max());
}

void LatencyHistogram::Reset() {
  count_.store(0, mc::memory_order_relaxed);
  sum_.store(0.0, mc::memory_order_relaxed);
  min_.store(kInf, mc::memory_order_relaxed);
  max_.store(-kInf, mc::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, mc::memory_order_relaxed);
}

}  // namespace obs
}  // namespace monoclass
