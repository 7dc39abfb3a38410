// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Private-state access to IncrementalPassiveSolver for white-box tests
// (the class names this struct as a friend): the audit-failure tests
// corrupt the repaired flow, the differential tests diff the solver's
// network against the cold builder's.

#ifndef MONOCLASS_TESTS_INCREMENTAL_SOLVER_TEST_PEER_H_
#define MONOCLASS_TESTS_INCREMENTAL_SOLVER_TEST_PEER_H_

#include "graph/graph.h"
#include "passive/incremental_solver.h"

namespace monoclass {

struct IncrementalSolverTestPeer {
  static FlowNetwork& network(IncrementalPassiveSolver& solver) {
    return solver.network_;
  }
  static double& flow_value(IncrementalPassiveSolver& solver) {
    return solver.flow_value_;
  }
  static double infinity(const IncrementalPassiveSolver& solver) {
    return solver.infinity_;
  }
  // Runs the compaction a dead-edge or headroom trigger would run.
  static void Compact(IncrementalPassiveSolver& solver) { solver.Rebuild(); }
};

}  // namespace monoclass

#endif  // MONOCLASS_TESTS_INCREMENTAL_SOLVER_TEST_PEER_H_
