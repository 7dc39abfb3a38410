// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/contending.h"

#include <algorithm>

#include "core/antichain.h"
#include "core/invariant_audit.h"
#include "obs/obs.h"
#include "util/audit.h"

namespace monoclass {
namespace {

[[maybe_unused]] AuditResult AuditContending(
    const PointSet& points, const std::vector<Label>& labels,
    const ContendingPartition& partition) {
  if (points.size() > kAntichainOracleCap) return AuditResult::Ok();
  if (ComputeContendingByScan(points, labels).contending !=
      partition.contending) {
    return AuditResult::Fail(
        "antichain contending set differs from the all-pairs scan");
  }
  return AuditResult::Ok();
}

// Fills is_contending from the increasing index list.
void FlagContending(ContendingPartition& partition) {
  for (const size_t i : partition.contending) {
    partition.is_contending[i] = true;
  }
}

}  // namespace

ContendingPartition ComputeContending(const PointSet& points,
                                      const std::vector<Label>& labels,
                                      const ParallelOptions& parallel) {
  MC_CHECK_EQ(points.size(), labels.size());
  const size_t n = points.size();
  ContendingPartition partition;
  partition.is_contending.assign(n, false);
  if (n == 0) return partition;

  std::vector<size_t> zeros;
  std::vector<size_t> ones;
  for (size_t i = 0; i < n; ++i) {
    (labels[i] == 0 ? zeros : ones).push_back(i);
  }
  const ExtremalAntichain minimal_ones(points.points(), ones,
                                       Extremal::kMinimal, parallel);
  const ExtremalAntichain maximal_zeros(points.points(), zeros,
                                        Extremal::kMaximal, parallel);

  // Row i's verdict depends only on row i, so the queries shard cleanly.
  // Each shard collects its hits locally; ParallelFor never uses more
  // shards than min(resolved threads, n), so sizing the buffer array by
  // that bound covers every shard index it can hand out.
  const size_t max_shards = std::max<size_t>(
      size_t{1}, std::min<size_t>(parallel.Resolve(), n));
  std::vector<std::vector<size_t>> shard_hits(max_shards);
  ParallelFor(n, parallel, [&](size_t begin, size_t end, size_t shard) {
    MC_SPAN("par.contending");
    std::vector<size_t>& hits = shard_hits[shard];
    for (size_t i = begin; i < end; ++i) {
      const bool contending = labels[i] == 0
                                  ? minimal_ones.Covers(points[i])
                                  : maximal_zeros.Covers(points[i]);
      if (contending) hits.push_back(i);
    }
  });

  // Merge after the join. Shard k covers an index range entirely below
  // shard k+1's, so concatenation reproduces the serial increasing
  // order. is_contending is vector<bool> (bit-packed -- adjacent
  // elements share a byte), so it is only written after the join, from
  // one thread.
  for (const std::vector<size_t>& hits : shard_hits) {
    partition.contending.insert(partition.contending.end(), hits.begin(),
                                hits.end());
  }
  FlagContending(partition);
  MC_AUDIT(AuditContending(points, labels, partition));
  return partition;
}

ContendingPartition ComputeContendingByScan(const PointSet& points,
                                            const std::vector<Label>& labels) {
  MC_CHECK_EQ(points.size(), labels.size());
  const size_t n = points.size();
  ContendingPartition partition;
  partition.is_contending.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    bool contending = false;
    for (size_t j = 0; j < n && !contending; ++j) {
      if (i == j) continue;
      contending = LabelsConflict(points[i], labels[i], points[j], labels[j]);
    }
    if (contending) partition.contending.push_back(i);
  }
  FlagContending(partition);
  return partition;
}

}  // namespace monoclass
