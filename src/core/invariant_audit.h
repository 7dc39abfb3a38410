// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// First-principles verifiers for the core structural invariants. See
// util/audit.h for how solvers invoke these behind MONOCLASS_AUDIT.
//
// Unlike ValidateChainDecomposition (a boolean predicate for API
// precondition checks), these return a diagnostic naming the violated
// lemma and the offending indices, and they also re-derive the *quality*
// guarantees: minimality of a decomposition is certified against an
// independently computed maximum antichain (Dilworth / Lemma 6), not
// taken on faith from the construction.

#ifndef MONOCLASS_CORE_INVARIANT_AUDIT_H_
#define MONOCLASS_CORE_INVARIANT_AUDIT_H_

#include <optional>
#include <vector>

#include "core/antichain.h"
#include "core/chain_decomposition.h"
#include "core/classifier.h"
#include "core/dataset.h"
#include "util/audit.h"

namespace monoclass {

// Audits the chain-decomposition invariants over `points`:
//   * partition      -- every point index appears in exactly one chain;
//   * chain ordering -- chain[j+1] weakly dominates chain[j] throughout;
//   * non-emptiness  -- no empty chains.
// With `expect_minimum`, additionally certifies |chains| == width by
// computing a maximum antichain through the independent matching-based
// path (Dilworth's theorem; O(d n^2 + n^2.5), so expect_minimum audits
// are as expensive as the decomposition itself). Because auditing must
// not change a solver's asymptotics, the certificate is skipped above a
// fixed size cap (see invariant_audit.cc); the linear structural checks
// always run.
AuditResult AuditChainDecomposition(const PointSet& points,
                                    const ChainDecomposition& decomposition,
                                    bool expect_minimum);

// Lemma 16 audit: `h` respects dominance on `points` -- no pair p >= q
// with h(p) = 0 and h(q) = 1. The classifier representation is monotone
// by construction; this re-checks the *evaluated* labels pairwise, which
// catches generator-pruning or evaluation bugs. O(d n^2); skipped above
// a fixed size cap (see invariant_audit.cc) so audited builds keep the
// solvers' asymptotics.
AuditResult AuditMonotone(const MonotoneClassifier& h, const PointSet& points);

// Audited builds check the antichain kernel and everything routed
// through it against the all-pairs oracles up to this many points; past
// it an O(d n^2) oracle would change a solver's asymptotics.
inline constexpr size_t kAntichainOracleCap = 4096;

// Antichain-kernel audit: `members` equals ExtremalElementsByScan, the
// all-pairs definition of the minimal (maximal) elements of `subset`.
// O(d m^2); skipped above a fixed size cap.
AuditResult AuditExtremalAntichain(const std::vector<Point>& points,
                                   const std::vector<size_t>& subset,
                                   Extremal which,
                                   const std::vector<size_t>& members);

// Lemma 16 certificate audit of MonotoneClassifier::FromAssignment: `h`
// is present iff the all-pairs IsMonotoneAssignment accepts `assignment`,
// and then reproduces it on every point. O(d n^2); skipped above a fixed
// size cap.
AuditResult AuditAssignmentCertificate(
    const std::optional<MonotoneClassifier>& h,
                                       const PointSet& points,
                                       const std::vector<Label>& assignment);

}  // namespace monoclass

#endif  // MONOCLASS_CORE_INVARIANT_AUDIT_H_
