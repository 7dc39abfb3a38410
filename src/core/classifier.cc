// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "core/antichain.h"
#include "core/invariant_audit.h"

namespace monoclass {

MonotoneClassifier MonotoneClassifier::AlwaysZero(size_t dimension) {
  MC_CHECK_GE(dimension, 1u);
  return MonotoneClassifier({}, dimension);
}

MonotoneClassifier MonotoneClassifier::AlwaysOne(size_t dimension) {
  MC_CHECK_GE(dimension, 1u);
  const Point bottom(std::vector<double>(
      dimension, -std::numeric_limits<double>::infinity()));
  return MonotoneClassifier({bottom}, dimension);
}

MonotoneClassifier MonotoneClassifier::FromGenerators(
    std::vector<Point> generators, size_t dimension) {
  MC_CHECK_GE(dimension, 1u);
  for (const Point& g : generators) {
    MC_CHECK_EQ(g.dimension(), dimension);
    for (size_t i = 0; i < dimension; ++i) {
      MC_CHECK(!std::isnan(g[i])) << "generator coordinate is NaN";
    }
  }
  return MonotoneClassifier(MinimalGenerators(std::move(generators)),
                            dimension);
}

MonotoneClassifier MonotoneClassifier::Threshold1D(double tau) {
  if (tau == -std::numeric_limits<double>::infinity()) return AlwaysOne(1);
  // h(p) = 1 iff p > tau iff p >= nextafter(tau, +inf) for doubles.
  const double generator =
      std::nextafter(tau, std::numeric_limits<double>::infinity());
  return MonotoneClassifier({Point{generator}}, 1);
}

std::optional<MonotoneClassifier> MonotoneClassifier::FromAssignment(
    const PointSet& points, const std::vector<Label>& values) {
  MC_CHECK_EQ(points.size(), values.size());
  MC_CHECK(!points.empty());
  // The certificate (Lemma 16): with M the minimal value-1 points, the
  // assignment is monotone iff no value-0 point weakly dominates a member
  // of M -- a value-0 point above any value-1 point lies above a minimal
  // one. M is then exactly the minimal generator set of the positives.
  std::vector<size_t> positives;
  for (size_t i = 0; i < points.size(); ++i) {
    if (values[i] == 1) positives.push_back(i);
  }
  const ExtremalAntichain minimal(points.points(), positives,
                                  Extremal::kMinimal);
  std::optional<MonotoneClassifier> classifier;
  bool monotone = true;
  for (size_t i = 0; i < points.size() && monotone; ++i) {
    monotone = values[i] != 0 || !minimal.Covers(points[i]);
  }
  if (monotone) {
    std::vector<Point> generators;
    generators.reserve(minimal.members().size());
    for (const size_t i : minimal.members()) generators.push_back(points[i]);
    classifier = MonotoneClassifier(std::move(generators), points.dimension());
  }
  MC_AUDIT(AuditAssignmentCertificate(classifier, points, values));
  return classifier;
}

bool MonotoneClassifier::Classify(const Point& x) const {
  MC_DCHECK_EQ(x.dimension(), dimension_);
  for (const Point& g : generators_) {
    if (DominatesEq(x, g)) return true;
  }
  return false;
}

std::vector<Label> MonotoneClassifier::ClassifySet(
    const PointSet& points) const {
  std::vector<Label> values(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    values[i] = Classify(points[i]) ? 1 : 0;
  }
  return values;
}

bool MonotoneClassifier::IsAlwaysOne() const {
  for (const Point& g : generators_) {
    bool all_bottom = true;
    for (size_t i = 0; i < g.dimension(); ++i) {
      if (g[i] != -std::numeric_limits<double>::infinity()) {
        all_bottom = false;
        break;
      }
    }
    if (all_bottom) return true;
  }
  return false;
}

std::string MonotoneClassifier::ToString() const {
  std::ostringstream out;
  out << "MonotoneClassifier(d=" << dimension_ << ", generators={";
  for (size_t i = 0; i < generators_.size(); ++i) {
    if (i > 0) out << ", ";
    out << generators_[i].ToString();
  }
  out << "})";
  return out.str();
}

size_t CountErrors(const MonotoneClassifier& h, const LabeledPointSet& set) {
  size_t errors = 0;
  for (size_t i = 0; i < set.size(); ++i) {
    const Label predicted = h.Classify(set.point(i)) ? 1 : 0;
    if (predicted != set.label(i)) ++errors;
  }
  return errors;
}

double WeightedError(const MonotoneClassifier& h,
                     const WeightedPointSet& set) {
  double error = 0.0;
  for (size_t i = 0; i < set.size(); ++i) {
    const Label predicted = h.Classify(set.point(i)) ? 1 : 0;
    if (predicted != set.label(i)) error += set.weight(i);
  }
  return error;
}

bool IsMonotoneAssignment(const PointSet& points,
                          const std::vector<Label>& values) {
  MC_CHECK_EQ(points.size(), values.size());
  for (size_t i = 0; i < points.size(); ++i) {
    if (values[i] != 0) continue;
    for (size_t j = 0; j < points.size(); ++j) {
      if (values[j] == 1 && i != j && DominatesEq(points[i], points[j])) {
        return false;  // points[i] dominates a positive point but is 0
      }
    }
  }
  return true;
}

MonotoneClassifier Unite(const MonotoneClassifier& a,
                         const MonotoneClassifier& b) {
  MC_CHECK_EQ(a.dimension(), b.dimension());
  std::vector<Point> generators = a.generators();
  generators.insert(generators.end(), b.generators().begin(),
                    b.generators().end());
  return MonotoneClassifier::FromGenerators(std::move(generators),
                                            a.dimension());
}

MonotoneClassifier Intersect(const MonotoneClassifier& a,
                             const MonotoneClassifier& b) {
  MC_CHECK_EQ(a.dimension(), b.dimension());
  // x is in both regions iff x >= some g_a and x >= some g_b, i.e.,
  // x >= max(g_a, g_b) coordinate-wise for some generator pair.
  std::vector<Point> generators;
  for (const Point& ga : a.generators()) {
    for (const Point& gb : b.generators()) {
      std::vector<double> coords(a.dimension());
      for (size_t i = 0; i < a.dimension(); ++i) {
        coords[i] = std::max(ga[i], gb[i]);
      }
      generators.push_back(Point(std::move(coords)));
    }
  }
  return MonotoneClassifier::FromGenerators(std::move(generators),
                                            a.dimension());
}

bool EquivalentOn(const MonotoneClassifier& a, const MonotoneClassifier& b,
                  const PointSet& points) {
  MC_CHECK_EQ(a.dimension(), b.dimension());
  if (!points.empty()) MC_CHECK_EQ(points.dimension(), a.dimension());
  for (size_t i = 0; i < points.size(); ++i) {
    if (a.Classify(points[i]) != b.Classify(points[i])) return false;
  }
  return true;
}

std::vector<Point> MinimalGenerators(std::vector<Point> generators) {
  std::vector<size_t> all(generators.size());
  std::iota(all.begin(), all.end(), size_t{0});
  const ExtremalAntichain minimal(generators, all, Extremal::kMinimal);
  std::vector<Point> kept;
  kept.reserve(minimal.members().size());
  for (const size_t i : minimal.members()) {
    kept.push_back(std::move(generators[i]));
  }
  return kept;
}

}  // namespace monoclass
