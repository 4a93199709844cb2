// Breadth-first search (paper Section 5.1).
//
// Gunrock's BFS is one advance + one filter per iteration. Two advance
// flavors (Section 4.5): the non-idempotent mode claims vertices with an
// atomic CAS on the depth label during advance (no duplicates reach the
// output frontier), while the idempotent mode — Gunrock's fastest — writes
// labels without atomics, tolerates benign rediscovery, and relies on the
// filter's visited-bitmap claim plus history-hash heuristics to prune
// duplicates. Direction-optimizing traversal (push/pull) is selected per
// iteration by the Beamer controller.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stats.hpp"
#include "graph/csr.hpp"
#include "primitives/options.hpp"

namespace gunrock {

struct BfsOptions : CommonOptions {
  /// Use the idempotent advance + filter-dedup pipeline (paper's fastest).
  bool idempotent = true;
  /// Traversal direction policy. kOptimizing needs a symmetric graph (or
  /// pass a reverse graph via `reverse`).
  core::Direction direction = core::Direction::kPush;
  double do_alpha = 14.0;  ///< push->pull switch threshold
  double do_beta = 24.0;   ///< pull->push switch threshold
  /// Record predecessor (BFS-tree parent) per vertex.
  bool compute_preds = true;
  /// Reverse graph for pull traversal on directed graphs; nullptr means
  /// the graph is symmetric and g doubles as its own reverse.
  const graph::Csr* reverse = nullptr;
};

struct BfsResult {
  /// Hop count from the source; -1 for unreachable vertices.
  std::vector<std::int32_t> depth;
  /// BFS-tree parent; kInvalidVid for the source and unreachable vertices.
  /// On a graph built symmetric, or with `reverse`, it is the first
  /// in-neighbour one level up (the smallest id on sorted rows) for any
  /// schedule; otherwise whichever frontier source claimed the vertex.
  std::vector<vid_t> pred;
  core::TraversalStats stats;
};

/// Runs BFS from `source`. Throws gunrock::Error on a bad source.
BfsResult Bfs(const graph::Csr& g, vid_t source,
              const BfsOptions& opts = {});

/// Engine-invokable runner: same semantics, but scratch comes from
/// ctl.workspace (lease-recycled by the query engine) and ctl.cancel is
/// polled at every iteration boundary (throws core::Cancelled).
BfsResult Bfs(const graph::Csr& g, vid_t source, const BfsOptions& opts,
              const RunControl& ctl);

}  // namespace gunrock
