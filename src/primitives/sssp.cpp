#include "primitives/sssp.hpp"

#include <algorithm>
#include <cmath>

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "core/priority_queue.hpp"
#include "parallel/atomics.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

struct SsspProblem {
  weight_t* dist = nullptr;
  const weight_t* weights = nullptr;
  std::int32_t* mark = nullptr;  // epoch claim array (output_queue_id)
  std::int32_t epoch = 0;
};

/// Paper Algorithm 1's UpdateLabel: relax with atomicMin, keep the edge
/// when it improved the destination's label.
struct SsspRelaxFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t e, SsspProblem& p) {
    const weight_t candidate =
        par::AtomicLoad(&p.dist[s]) + p.weights[e];
    const weight_t old = par::AtomicMin(&p.dist[d], candidate);
    return candidate < old;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, SsspProblem&) {}
};

/// Paper Algorithm 1's RemoveRedundant: first claimant of the vertex in
/// this epoch keeps it; duplicates are dropped exactly.
struct SsspDedupFunctor {
  static bool CondVertex(vid_t v, SsspProblem& p) {
    return par::AtomicExchange(&p.mark[v], p.epoch) != p.epoch;
  }
  static void ApplyVertex(vid_t, SsspProblem&) {}
};

}  // namespace

weight_t SsspDeltaHeuristic(const graph::Csr& g, par::ThreadPool& pool) {
  // Davidson et al.: warp width × mean weight / mean degree. An edgeless
  // graph would compute 0/0 = NaN here and feed it through std::max (where
  // NaN makes the result depend on argument order); a non-finite or ≤0
  // mean weight is equally meaningless as a bucket width.
  if (g.num_edges() == 0) return 1;
  const double mean_w =
      static_cast<double>(par::ReduceSum(pool, g.weights())) /
      static_cast<double>(g.num_edges());
  if (!std::isfinite(mean_w) || mean_w <= 0) return 1;
  return static_cast<weight_t>(std::max(
      1.0, kWarpWidth * mean_w / std::max(1.0, g.average_degree())));
}

SsspResult Sssp(const graph::Csr& g, vid_t source,
                const SsspOptions& opts) {
  return Sssp(g, source, opts, RunControl{});
}

SsspResult Sssp(const graph::Csr& g, vid_t source, const SsspOptions& opts,
                const RunControl& ctl) {
  GR_CHECK(source >= 0 && source < g.num_vertices(),
           "SSSP source out of range");
  GR_CHECK(g.has_weights(), "SSSP needs an edge-weighted graph");
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  SsspResult result;
  result.dist.assign(n, kInfinity);
  result.dist[source] = 0;

  // Enactor-owned scratch arena: operators and the near/far splits reuse
  // their buffers through it, so iterations are allocation-free after
  // warm-up; an engine lease extends the reuse across queries.
  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  auto& mark = ws.Get<std::vector<std::int32_t>>(pslot::kSsspFirst + 6);
  mark.assign(n, 0);
  SsspProblem prob;
  prob.dist = result.dist.data();
  prob.weights = g.weights().data();
  prob.mark = mark.data();

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.ScaleFree(g, pool);
  adv_cfg.model_efficiency = opts.model_lane_efficiency;
  adv_cfg.workspace = &ws;
  core::FilterConfig filter_cfg;
  filter_cfg.workspace = &ws;

  // Davidson et al.'s Δ heuristic: warp width × mean weight / mean degree.
  weight_t delta = opts.delta;
  if (opts.use_near_far && delta <= 0) {
    delta = SsspDeltaHeuristic(g, pool);
  }

  auto& frontier = ws.Get<core::VertexFrontier>(pslot::kSsspFirst);
  frontier.Assign({source});
  // Near/far piles and the advance/dedup buffers, reused across
  // iterations and (via the lease) across queries.
  auto& far_pile = ws.Get<std::vector<vid_t>>(pslot::kSsspFirst + 1);
  auto& near_buffer = ws.Get<std::vector<vid_t>>(pslot::kSsspFirst + 2);
  auto& raw = ws.Get<std::vector<vid_t>>(pslot::kSsspFirst + 3);
  auto& deduped = ws.Get<std::vector<vid_t>>(pslot::kSsspFirst + 4);
  auto& still_far = ws.Get<std::vector<vid_t>>(pslot::kSsspFirst + 5);
  far_pile.clear();
  near_buffer.clear();
  raw.clear();
  deduped.clear();
  still_far.clear();
  weight_t threshold = delta;

  core::EfficiencyAccumulator efficiency;
  WallTimer timer;

  while (!frontier.empty() || !far_pile.empty()) {
    ctl.Checkpoint();
    if (frontier.empty()) {
      // Near slice exhausted: advance the Δ window and re-split the far
      // pile (paper: "We then update the priority function and operate on
      // the far slice"). Entries whose label improved below the window
      // are re-claimed through the epoch filter next iteration. Jumping
      // straight past the smallest far label (rather than stepping Δ at a
      // time) guarantees each re-split promotes at least one vertex, even
      // when Δ is tiny relative to the labels (threshold + Δ can round to
      // threshold in float and would otherwise loop forever); the window
      // schedule only orders work, so labels are unchanged.
      const weight_t min_far = par::TransformReduce(
          pool, far_pile.size(), kInfinity,
          [](weight_t a, weight_t b) { return b < a ? b : a; },
          [&](std::size_t i) { return result.dist[far_pile[i]]; }, &ws,
          pslot::kSsspFirst + 7);
      threshold = std::max(threshold + delta, min_far + delta);
      if (!(threshold > min_far)) {
        threshold = std::nextafter(min_far, kInfinity);
      }
      still_far.clear();
      core::SplitNearFar(
          pool, std::span<const vid_t>(far_pile), near_buffer, still_far,
          [&](vid_t v) { return result.dist[v] < threshold; }, &ws);
      far_pile.swap(still_far);
      frontier.current().assign(near_buffer.begin(), near_buffer.end());
      if (frontier.empty() && !far_pile.empty()) continue;
      if (frontier.empty()) break;
    }

    prob.epoch += 1;
    const std::size_t n_f = frontier.size();
    raw.clear();
    const auto adv = core::AdvancePush<SsspRelaxFunctor>(
        pool, g, frontier.current(), &raw, prob, adv_cfg);
    result.stats.edges_visited += adv.edges_visited;
    efficiency.Add(adv.lane_efficiency, adv.edges_visited);

    deduped.clear();
    core::FilterVertex<SsspDedupFunctor>(pool, raw, &deduped, prob,
                                         filter_cfg);

    if (opts.use_near_far) {
      core::SplitNearFar(
          pool, std::span<const vid_t>(deduped), frontier.next(), far_pile,
          [&](vid_t v) { return result.dist[v] < threshold; }, &ws);
    } else {
      frontier.next().assign(deduped.begin(), deduped.end());
    }

    if (opts.collect_records) {
      result.stats.records.push_back({"advance+filter", prob.epoch, n_f,
                                      frontier.next().size(),
                                      adv.edges_visited,
                                      adv.lane_efficiency});
    }
    frontier.Flip();
    ++result.stats.iterations;
  }

  // Recompute predecessors in one pass so the tree property holds exactly
  // even though relaxations raced during traversal.
  if (opts.compute_preds) {
    result.pred.assign(n, kInvalidVid);
    core::ForAll(pool, n, [&](std::size_t v) {
      if (result.dist[v] == kInfinity ||
          static_cast<vid_t>(v) == source) {
        return;
      }
      for (eid_t e = g.row_begin(static_cast<vid_t>(v));
           e < g.row_end(static_cast<vid_t>(v)); ++e) {
        const vid_t u = g.edge_dest(e);
        // Works on symmetric graphs: scan v's neighbors as in-edges.
        if (result.dist[u] + g.edge_weight(e) == result.dist[v]) {
          result.pred[v] = u;
          break;
        }
      }
    });
  }

  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.lane_efficiency = efficiency.Value();
  return result;
}

}  // namespace gunrock
