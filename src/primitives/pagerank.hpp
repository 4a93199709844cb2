// PageRank (paper Section 5.5).
//
// "Each iteration contains one advance operator to compute the PageRank
// value on the frontier of vertices, and one filter operator to remove the
// vertices whose PageRanks have already converged. We accumulate PageRank
// values with AtomicAdd operations."
//
// Two modes: the default runs the classic power iteration until the
// global residual falls below the tolerance (every vertex pushes every
// iteration; exactly comparable to the serial oracle), while
// frontier_mode = true reproduces Gunrock's delta-style behavior where
// converged vertices leave the frontier and stop pushing (faster, slightly
// approximate tails). Dangling mass is redistributed uniformly in both.
#pragma once

#include <vector>

#include "core/stats.hpp"
#include "graph/csr.hpp"
#include "primitives/options.hpp"

namespace gunrock {

struct PagerankOptions : CommonOptions {
  double damping = 0.85;
  /// Per-vertex convergence threshold on |rank - previous rank|.
  double tolerance = 1e-9;
  int max_iterations = 1000;
  /// Gunrock-faithful frontier shrinking (see header comment).
  bool frontier_mode = false;
  /// Pull mode gathers over in-edges (paper Section 7's proposed
  /// gather-reduce operator) as a merge-path SpMV sweep (core/spmv.hpp):
  /// no atomics, no frontier, equal-work partitioned, ranks bit-identical
  /// at any pool width. The default (push) is the paper's Section 5.5
  /// formulation (advance + atomicAdd). The gather needs a symmetric
  /// graph or `reverse`; without either it throws gunrock::Error.
  bool pull = false;
  /// Reverse graph for the gather on directed inputs; nullptr means the
  /// graph is symmetric (g is its own reverse).
  const graph::Csr* reverse = nullptr;
  /// Execution backend. kSpmv runs the gather sweep even without `pull`;
  /// kAuto and kFrontier leave the choice to `pull`. frontier_mode always
  /// pushes.
  core::SpmvBackend backend = core::SpmvBackend::kAuto;

  /// True when the run takes the gather sweep rather than the push
  /// advance.
  bool Gathers() const {
    return !frontier_mode && (pull || backend == core::SpmvBackend::kSpmv);
  }
};

struct PagerankResult {
  /// Stationary distribution; sums to 1.
  std::vector<double> rank;
  int iterations = 0;
  core::TraversalStats stats;
  /// Wall time divided by iterations (the paper's Table 3 normalizes all
  /// PageRank timings to one iteration).
  double MsPerIteration() const {
    return iterations > 0 ? stats.elapsed_ms / iterations : 0.0;
  }
};

PagerankResult Pagerank(const graph::Csr& g,
                        const PagerankOptions& opts = {});

/// Engine-invokable runner: scratch from ctl.workspace, ctl.cancel polled
/// at iteration boundaries (throws core::Cancelled).
PagerankResult Pagerank(const graph::Csr& g, const PagerankOptions& opts,
                        const RunControl& ctl);

}  // namespace gunrock
