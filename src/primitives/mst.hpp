// Minimum spanning forest (paper Section 5.5 lists MST among the
// primitives "we have developed or are actively developing").
//
// Borůvka's algorithm in frontier form: each round, every component finds
// its minimum-weight outgoing edge (an atomic-min over packed
// (weight, edge-id) keys — the tie-breaking by edge id makes the choice a
// total order, which prevents cycles), the chosen edges join the forest,
// components merge by hooking + pointer jumping, and an
// edge-frontier filter drops the arcs that became intra-component.
#pragma once

#include <vector>

#include "core/stats.hpp"
#include "graph/csr.hpp"
#include "primitives/options.hpp"

namespace gunrock {

/// Frontier policy for the Borůvka rounds. Both variants select the same
/// winning edges (the packed (weight, id) total order is identical), so
/// they produce identical forests; they trade memory traffic differently.
enum class MstVariant {
  /// Filtered Borůvka (default): an edge-frontier filter drops arcs that
  /// became intra-component after every round, so later rounds only scan
  /// the surviving cross-component arcs.
  kFiltered,
  /// Classic Borůvka: every round scans the full canonical arc list and
  /// skips intra-component arcs inline — no compaction passes, cheaper
  /// when the forest converges in very few rounds.
  kScanAll,
};

struct MstOptions : CommonOptions {
  MstVariant variant = MstVariant::kFiltered;
};

struct MstResult {
  /// Edge slots (canonical arcs with src < dst) of the spanning forest.
  std::vector<eid_t> tree_edges;
  double total_weight = 0.0;
  /// Components of the input graph (the forest spans each separately).
  vid_t num_components = 0;
  core::TraversalStats stats;
};

/// Computes a minimum spanning forest of an undirected weighted graph.
/// Throws gunrock::Error if the graph has no weights.
MstResult Mst(const graph::Csr& g, const MstOptions& opts = {});

/// Engine-invokable runner: scratch from ctl.workspace (slots
/// pslot::kMstFirst..+5), ctl.cancel polled at Borůvka-round boundaries
/// (throws core::Cancelled).
MstResult Mst(const graph::Csr& g, const MstOptions& opts,
              const RunControl& ctl);

}  // namespace gunrock
