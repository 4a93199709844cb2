// Output validation against the serial baselines (src/baselines/serial).
//
// Every timed primitive output is checked after its timer stops. A failed
// check is counted, never thrown, so one bad output shows up as a nonzero
// failure fraction instead of aborting the run.
//
// Tolerances: BFS depths, SSSP distances (integer weights, exact in
// float) and CC labels must match exactly; BC within 1e-8 + 1e-8 * |ref|
// (the tolerance of tests/test_bc.cpp); PageRank within 1e-10 +
// 1e-6 * |ref| after the same fixed 10 iterations.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/serial.hpp"
#include "graph/csr.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/bfs_batch.hpp"
#include "primitives/cc.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"

namespace perfbench {

using gunrock::eid_t;
using gunrock::vid_t;

inline constexpr int kPrIterations = 10;
inline constexpr double kDamping = 0.85;

/// Serial reference outputs for one graph and source.
struct Reference {
  gunrock::serial::BfsOutput bfs;
  gunrock::serial::SsspOutput sssp;
  std::vector<double> bc;
  gunrock::serial::CcOutput cc;
  gunrock::serial::PagerankOutput pr;
  /// The msbfs sources and the serial BFS depths from each.
  std::vector<vid_t> lane_sources;
  std::vector<std::vector<std::int32_t>> lanes;
  /// Directed arcs (sum of degrees) in the source's component; the
  /// Graph500 undirected edge count is half of it.
  eid_t component_arcs = 0;
};

inline eid_t ComponentArcs(const gunrock::graph::Csr& g,
                           std::span<const std::int32_t> depth) {
  eid_t arcs = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (depth[static_cast<std::size_t>(v)] >= 0) arcs += g.degree(v);
  }
  return arcs;
}

/// Depths equal the reference and every predecessor is an adjacent
/// vertex one level up (any such parent is a valid BFS tree).
inline bool CheckBfs(const gunrock::graph::Csr& g, vid_t source,
                     const gunrock::BfsResult& r,
                     const gunrock::serial::BfsOutput& ref) {
  if (r.depth != ref.depth) return false;
  if (r.pred.size() != r.depth.size()) return false;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto d = r.depth[static_cast<std::size_t>(v)];
    if (d <= 0) continue;  // source or unreachable
    const vid_t p = r.pred[static_cast<std::size_t>(v)];
    if (p < 0 || p >= g.num_vertices()) return false;
    if (r.depth[static_cast<std::size_t>(p)] != d - 1) return false;
    const auto nbrs = g.neighbors(p);
    if (!std::binary_search(nbrs.begin(), nbrs.end(), v)) return false;
  }
  return r.pred[static_cast<std::size_t>(source)] == gunrock::kInvalidVid;
}

inline bool CheckSssp(const gunrock::SsspResult& r,
                      const gunrock::serial::SsspOutput& ref) {
  return r.dist == ref.dist;
}

inline bool CheckBc(const gunrock::BcResult& r,
                    const std::vector<double>& ref) {
  if (r.bc.size() != ref.size()) return false;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if (!(std::abs(r.bc[v] - ref[v]) <= 1e-8 + 1e-8 * std::abs(ref[v]))) {
      return false;
    }
  }
  return true;
}

inline bool CheckCc(const gunrock::CcResult& r,
                    const gunrock::serial::CcOutput& ref) {
  return r.num_components == ref.num_components &&
         r.component == ref.component;
}

inline bool CheckPr(const gunrock::PagerankResult& r,
                    const gunrock::serial::PagerankOutput& ref) {
  if (r.iterations != ref.iterations || r.rank.size() != ref.rank.size()) {
    return false;
  }
  for (std::size_t v = 0; v < ref.rank.size(); ++v) {
    if (!(std::abs(r.rank[v] - ref.rank[v]) <=
          1e-10 + 1e-6 * std::abs(ref.rank[v]))) {
      return false;
    }
  }
  return true;
}

/// Number of msbfs lanes whose depths differ from the scalar reference
/// (an incomplete lane counts as failed).
inline int MsbfsLaneFailures(const gunrock::BfsBatchResult& r,
                             const Reference& ref) {
  int failed = 0;
  for (std::size_t l = 0; l < ref.lanes.size(); ++l) {
    const bool done = (r.completed_mask >> l) & 1u;
    if (!done || l >= r.depth.size() || r.depth[l] != ref.lanes[l]) ++failed;
  }
  return failed;
}

}  // namespace perfbench
