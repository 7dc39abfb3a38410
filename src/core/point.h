// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Points in R^d and the dominance partial order (paper Section 1.1).
//
// Dominance convention. The paper says p "dominates" q when p != q and
// p[i] >= q[i] on every dimension. Coordinate-wise comparison of *equal*
// points is the degenerate case: two distinct input points with identical
// coordinates dominate each other, forcing any monotone classifier to give
// them the same label. The library therefore exposes the reflexive
// comparison DominatesEq (p[i] >= q[i] for all i, including p == q), which
// is the workhorse everywhere, plus StrictlyDominates for the
// paper-literal relation on distinct coordinate vectors.

#ifndef MONOCLASS_CORE_POINT_H_
#define MONOCLASS_CORE_POINT_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace monoclass {

// An immutable point in R^d. Up to kInlineDimension coordinates live
// inside the object itself (the regime of the paper: similarity-score
// vectors with a handful of metrics), so a PointSet of small-d points is
// one contiguous allocation; larger points keep their coordinates on the
// heap.
class Point {
 public:
  static constexpr size_t kInlineDimension = 4;

  Point() = default;

  explicit Point(const std::vector<double>& coordinates)
      : Point(coordinates.data(), coordinates.size()) {}

  Point(std::initializer_list<double> coordinates)
      : Point(coordinates.begin(), coordinates.size()) {}

  Point(const Point& other) : Point(other.data(), other.dimension_) {}
  Point(Point&& other) noexcept;
  Point& operator=(const Point& other);
  Point& operator=(Point&& other) noexcept;
  ~Point() { Release(); }

  // Number of dimensions d.
  size_t dimension() const { return dimension_; }

  // Coordinate on dimension i (0-based; the paper writes p[i] 1-based).
  double operator[](size_t i) const {
    MC_DCHECK_LT(i, dimension_);
    return data()[i];
  }

  friend bool operator==(const Point& a, const Point& b);
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }

  // "(x1, x2, ..., xd)" rendering for diagnostics.
  std::string ToString() const;

 private:
  Point(const double* coordinates, size_t dimension);

  bool IsInline() const { return dimension_ <= kInlineDimension; }
  const double* data() const { return IsInline() ? inline_ : heap_; }
  // Frees heap coordinates, leaving an empty inline point.
  void Release();
  // Moves other's coordinates into this empty point, leaving `other`
  // empty when they were on the heap.
  void TakeFrom(Point& other);

  size_t dimension_ = 0;
  union {
    double inline_[kInlineDimension] = {};
    double* heap_;  // owned; dimension_ > kInlineDimension only
  };
};

// True iff p[i] >= q[i] on every dimension (reflexive dominance). This is
// exactly the relation a monotone classifier must respect: DominatesEq(p, q)
// implies h(p) >= h(q).
bool DominatesEq(const Point& p, const Point& q);

// True iff p and q have different coordinate vectors and DominatesEq(p, q);
// the paper-literal "p dominates q".
bool StrictlyDominates(const Point& p, const Point& q);

// True iff neither point weakly dominates the other (the points are
// incomparable; an antichain is a pairwise-incomparable set).
bool Incomparable(const Point& p, const Point& q);

}  // namespace monoclass

#endif  // MONOCLASS_CORE_POINT_H_
