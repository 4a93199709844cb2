// Connected components (paper Section 5.4), after Soman et al., with the
// root hooking of ECL-CC (Jaiganesh & Burtscher, HPDC 2018).
//
// One hooking filter runs on an edge frontier of the u <= v arcs: each
// edge finds both endpoints' roots in the union-find forest `component`,
// halving the paths on the way (par::FindRoot), and CASes the larger root
// under the smaller. An edge is filtered away once its roots match or its
// CAS lands; only edges whose CAS lost to a concurrent hook of the same
// root stay for the next round, so `stats.iterations` counts hooking
// rounds — 1 without contention — and `stats.edges_visited` the edges
// they examined. A final flatten points every vertex at its root. Roots
// are only ever hooked under smaller roots, so each label is the
// component's minimum vertex id, whatever the schedule.
#pragma once

#include <vector>

#include "core/stats.hpp"
#include "graph/csr.hpp"
#include "primitives/options.hpp"

namespace gunrock {

struct CcOptions : CommonOptions {};

struct CcResult {
  /// Component label per vertex: the smallest vertex id in the component.
  std::vector<vid_t> component;
  vid_t num_components = 0;
  core::TraversalStats stats;
};

CcResult Cc(const graph::Csr& g, const CcOptions& opts = {});

/// Engine-invokable runner: scratch from ctl.workspace, ctl.cancel polled
/// at hooking-round boundaries (throws core::Cancelled).
CcResult Cc(const graph::Csr& g, const CcOptions& opts,
            const RunControl& ctl);

}  // namespace gunrock
