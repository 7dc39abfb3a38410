// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/point.h"

#include <algorithm>
#include <sstream>

namespace monoclass {

Point::Point(const double* coordinates, size_t dimension)
    : dimension_(dimension) {
  double* storage = inline_;
  if (!IsInline()) {
    heap_ = new double[dimension];
    storage = heap_;
  }
  std::copy(coordinates, coordinates + dimension, storage);
}

Point::Point(Point&& other) noexcept { TakeFrom(other); }

Point& Point::operator=(const Point& other) {
  if (this != &other) *this = Point(other);
  return *this;
}

Point& Point::operator=(Point&& other) noexcept {
  if (this != &other) {
    Release();
    TakeFrom(other);
  }
  return *this;
}

void Point::TakeFrom(Point& other) {
  dimension_ = other.dimension_;
  if (IsInline()) {
    std::copy(other.inline_, other.inline_ + kInlineDimension, inline_);
  } else {
    heap_ = other.heap_;
    other.dimension_ = 0;  // `other` no longer owns the heap coordinates
    std::fill(other.inline_, other.inline_ + kInlineDimension, 0.0);
  }
}

void Point::Release() {
  if (!IsInline()) delete[] heap_;
  dimension_ = 0;
  std::fill(inline_, inline_ + kInlineDimension, 0.0);
}

bool operator==(const Point& a, const Point& b) {
  return a.dimension_ == b.dimension_ &&
         std::equal(a.data(), a.data() + a.dimension_, b.data());
}

std::string Point::ToString() const {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < dimension_; ++i) {
    if (i > 0) out << ", ";
    out << (*this)[i];
  }
  out << ")";
  return out.str();
}

bool DominatesEq(const Point& p, const Point& q) {
  MC_DCHECK_EQ(p.dimension(), q.dimension());
  for (size_t i = 0; i < p.dimension(); ++i) {
    if (p[i] < q[i]) return false;
  }
  return true;
}

bool StrictlyDominates(const Point& p, const Point& q) {
  return p != q && DominatesEq(p, q);
}

bool Incomparable(const Point& p, const Point& q) {
  return !DominatesEq(p, q) && !DominatesEq(q, p);
}

}  // namespace monoclass
