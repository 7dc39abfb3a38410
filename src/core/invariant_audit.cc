// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/invariant_audit.h"

#include <sstream>
#include <string>
#include <vector>

#include "core/antichain.h"
#include "core/point.h"

namespace monoclass {
namespace {

// The exhaustive certificates below are super-linear: the Dilworth
// certificate rebuilds the dominance DAG (O(n^2) edges) and runs a
// matching, the Lemma 16 scan is O(n^2) pairs. Auditing must never
// change a solver's asymptotics -- the 2D patience path exists exactly
// because n can reach 10^5+ -- so past these sizes the expensive pass is
// skipped and only the linear structural checks run. The caps are sized
// so an instrumented (ASan) CI build still clears them in seconds.
constexpr size_t kMinimalityCertificateCap = 2048;
constexpr size_t kMonotonePairScanCap = 8192;

}  // namespace

AuditResult AuditChainDecomposition(const PointSet& points,
                                    const ChainDecomposition& decomposition,
                                    bool expect_minimum) {
  std::vector<size_t> owner(points.size(), decomposition.NumChains());
  for (size_t c = 0; c < decomposition.NumChains(); ++c) {
    const auto& chain = decomposition.chains[c];
    if (chain.empty()) {
      std::ostringstream why;
      why << "chain " << c << " is empty";
      return AuditResult::Fail(why.str());
    }
    for (const size_t index : chain) {
      if (index >= points.size()) {
        std::ostringstream why;
        why << "chain " << c << " references out-of-range index " << index
            << " (n = " << points.size() << ")";
        return AuditResult::Fail(why.str());
      }
      if (owner[index] != decomposition.NumChains()) {
        std::ostringstream why;
        why << "index " << index << " appears in chains " << owner[index]
            << " and " << c << " (not a partition)";
        return AuditResult::Fail(why.str());
      }
      owner[index] = c;
    }
    for (size_t j = 0; j + 1 < chain.size(); ++j) {
      if (!DominatesEq(points[chain[j + 1]], points[chain[j]])) {
        std::ostringstream why;
        why << "chain " << c << " breaks dominance order at position " << j
            << ": point " << chain[j + 1] << " does not weakly dominate point "
            << chain[j];
        return AuditResult::Fail(why.str());
      }
    }
  }
  for (size_t i = 0; i < points.size(); ++i) {
    if (owner[i] == decomposition.NumChains()) {
      std::ostringstream why;
      why << "index " << i << " missing from every chain (not a partition)";
      return AuditResult::Fail(why.str());
    }
  }

  if (expect_minimum && points.size() <= kMinimalityCertificateCap) {
    // Dilworth certificate: the antichain is computed through the
    // matching + Koenig path, fully independent of any path-cover or
    // patience construction being audited.
    const std::vector<size_t> antichain = MaximumAntichain(points);
    if (!IsAntichain(points, antichain)) {
      return AuditResult::Fail(
          "width certificate is not actually an antichain");
    }
    if (antichain.size() != decomposition.NumChains()) {
      std::ostringstream why;
      why << "decomposition has " << decomposition.NumChains()
          << " chains but the maximum antichain has " << antichain.size()
          << " points (Dilworth minimality violated)";
      return AuditResult::Fail(why.str());
    }
  }
  return AuditResult::Ok();
}

AuditResult AuditMonotone(const MonotoneClassifier& h, const PointSet& points) {
  if (points.empty()) return AuditResult::Ok();
  if (h.dimension() != points.dimension()) {
    std::ostringstream why;
    why << "classifier dimension " << h.dimension()
        << " != point set dimension " << points.dimension();
    return AuditResult::Fail(why.str());
  }
  if (points.size() > kMonotonePairScanCap) return AuditResult::Ok();
  const std::vector<Label> labels = h.ClassifySet(points);
  for (size_t p = 0; p < points.size(); ++p) {
    if (labels[p] != 0) continue;
    for (size_t q = 0; q < points.size(); ++q) {
      if (labels[q] != 1 || p == q) continue;
      if (DominatesEq(points[p], points[q])) {
        std::ostringstream why;
        why << "Lemma 16 violated: point " << p << " dominates point " << q
            << " yet h(" << p << ") = 0 and h(" << q << ") = 1";
        return AuditResult::Fail(why.str());
      }
    }
  }
  return AuditResult::Ok();
}

AuditResult AuditExtremalAntichain(const std::vector<Point>& points,
                                   const std::vector<size_t>& subset,
                                   Extremal which,
                                   const std::vector<size_t>& members) {
  if (subset.size() > kAntichainOracleCap) return AuditResult::Ok();
  const std::vector<size_t> expected =
      ExtremalElementsByScan(points, subset, which);
  if (members != expected) {
    std::ostringstream why;
    why << (which == Extremal::kMinimal ? "minimal" : "maximal")
        << " antichain kernel kept " << members.size()
        << " elements but the all-pairs scan keeps " << expected.size();
    return AuditResult::Fail(why.str());
  }
  return AuditResult::Ok();
}

AuditResult AuditAssignmentCertificate(
    const std::optional<MonotoneClassifier>& h, const PointSet& points,
    const std::vector<Label>& assignment) {
  if (points.size() > kAntichainOracleCap) return AuditResult::Ok();
  if (h.has_value() != IsMonotoneAssignment(points, assignment)) {
    return AuditResult::Fail(
        std::string("Lemma 16 certificate ") +
        (h.has_value() ? "accepted" : "rejected") +
        " an assignment the all-pairs scan " +
        (h.has_value() ? "rejects" : "accepts"));
  }
  if (!h.has_value()) return AuditResult::Ok();
  const std::vector<Label> evaluated = h->ClassifySet(points);
  for (size_t i = 0; i < points.size(); ++i) {
    if (evaluated[i] != assignment[i]) {
      std::ostringstream why;
      why << "Lemma 16 certificate: h(" << i << ") = "
          << static_cast<int>(evaluated[i]) << " but the assignment gives "
          << static_cast<int>(assignment[i]);
      return AuditResult::Fail(why.str());
    }
  }
  return AuditResult::Ok();
}

}  // namespace monoclass
