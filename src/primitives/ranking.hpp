// Node-ranking primitives beyond PageRank (paper Section 5.5): HITS,
// SALSA and personalized PageRank — the three algorithms of Twitter's
// who-to-follow pipeline that Geil et al. [9] built on Gunrock, "the first
// to use a programmable framework for bipartite graphs".
//
// All three run on a directed graph given as a (forward, reverse) CSR
// pair; for the bipartite who-to-follow case, generate the graph with
// graph::GenerateBipartite (users then items).
#pragma once

#include <vector>

#include "core/stats.hpp"
#include "graph/csr.hpp"
#include "primitives/options.hpp"

namespace gunrock {

/// Score-normalization variant for HITS. Kleinberg's original algorithm
/// normalizes by the L2 norm; the L1 form keeps the scores a probability
/// distribution (handy when mixing with PageRank-family scores). The
/// ranking order is identical; the fixed point's scale differs.
enum class HitsNorm {
  kL1,  ///< scores sum to 1 (default; matches the PageRank convention)
  kL2,  ///< unit Euclidean norm (Kleinberg's classic formulation)
};

struct HitsOptions : CommonOptions {
  int max_iterations = 50;
  double tolerance = 1e-8;  ///< L1 movement across both score vectors
  HitsNorm norm = HitsNorm::kL1;
  /// kAuto and kSpmv run the merge-path semiring gather (core/spmv.hpp)
  /// on every graph; kFrontier runs the paper's atomic push scatter.
  core::SpmvBackend backend = core::SpmvBackend::kAuto;
};

struct HitsResult {
  std::vector<double> hub;
  std::vector<double> authority;
  int iterations = 0;
  core::TraversalStats stats;
};

/// Hyperlink-Induced Topic Search. `rg` must be ReverseCsr(g).
HitsResult Hits(const graph::Csr& g, const graph::Csr& rg,
                const HitsOptions& opts = {});

/// Engine-invokable runner: scratch from ctl.workspace (slots
/// pslot::kRankingFirst..+11; shared by the three ranking primitives,
/// every slot holding one fixed type), ctl.cancel polled at iteration
/// boundaries (throws core::Cancelled).
HitsResult Hits(const graph::Csr& g, const graph::Csr& rg,
                const HitsOptions& opts, const RunControl& ctl);

struct SalsaOptions : CommonOptions {
  int max_iterations = 50;
  double tolerance = 1e-8;
  /// See HitsOptions::backend.
  core::SpmvBackend backend = core::SpmvBackend::kAuto;
};

struct SalsaResult {
  std::vector<double> hub;
  std::vector<double> authority;
  int iterations = 0;
  core::TraversalStats stats;
};

/// Stochastic Approach for Link-Structure Analysis: the random-walk
/// variant of HITS (column/row-stochastic propagation instead of raw
/// sums).
SalsaResult Salsa(const graph::Csr& g, const graph::Csr& rg,
                  const SalsaOptions& opts = {});

/// Engine-invokable runner (see Hits overload).
SalsaResult Salsa(const graph::Csr& g, const graph::Csr& rg,
                  const SalsaOptions& opts, const RunControl& ctl);

struct PprOptions : CommonOptions {
  double damping = 0.85;
  double tolerance = 1e-9;
  int max_iterations = 1000;
  /// kSpmv runs the gather-form sweep over the reverse graph. kAuto keeps
  /// the push formulation: PPR frontiers start concentrated on the seeds,
  /// where push wins, and the engine's wave coalescing is built on the
  /// push path — spmv is an explicit opt-in here.
  core::SpmvBackend backend = core::SpmvBackend::kAuto;
  /// Reverse graph for the spmv backend on directed inputs; nullptr means
  /// the graph is symmetric (g is its own reverse).
  const graph::Csr* reverse = nullptr;
};

struct PprResult {
  std::vector<double> rank;
  int iterations = 0;
  core::TraversalStats stats;
};

/// Personalized PageRank: the teleport distribution is concentrated on
/// `seeds` (uniformly) rather than on all vertices.
PprResult PersonalizedPagerank(const graph::Csr& g,
                               std::span<const vid_t> seeds,
                               const PprOptions& opts = {});

/// Engine-invokable runner (see Hits overload).
PprResult PersonalizedPagerank(const graph::Csr& g,
                               std::span<const vid_t> seeds,
                               const PprOptions& opts,
                               const RunControl& ctl);

}  // namespace gunrock
