#include "primitives/bfs_batch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "core/advance_ms.hpp"
#include "core/direction.hpp"
#include "core/frontier.hpp"
#include "parallel/bitmap.hpp"
#include "parallel/compact.hpp"
#include "parallel/for_each.hpp"
#include "parallel/lane_mask.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

/// Problem slice shared by the multi-source functors. `visited` is only
/// read during an advance (updates happen in the level's consume phase),
/// so the gate `lanes & ~visited[v] & active` sees a stable level-start
/// snapshot — every propagated bit is a genuine this-level discovery.
struct MsBfsProblem {
  const par::LaneMaskFrontier* visited = nullptr;
  std::uint64_t active = ~std::uint64_t{0};
};

struct MsBfsPushFunctor {
  static std::uint64_t CondEdge(vid_t, vid_t v, eid_t, std::uint64_t lanes,
                                MsBfsProblem& p) {
    return lanes & ~p.visited->Load(static_cast<std::size_t>(v)) & p.active;
  }
};

struct MsBfsPullFunctor {
  static std::uint64_t Remaining(vid_t v, MsBfsProblem& p) {
    return ~p.visited->Load(static_cast<std::size_t>(v)) & p.active;
  }
};

}  // namespace

BfsBatchResult BfsBatch(const graph::Csr& g, std::span<const vid_t> sources,
                        const BfsBatchOptions& opts) {
  return BfsBatch(g, sources, opts, RunControl{});
}

BfsBatchResult BfsBatch(const graph::Csr& g, std::span<const vid_t> sources,
                        const BfsBatchOptions& opts, const RunControl& ctl,
                        const BatchLaneControl& lanes) {
  const std::size_t num_lanes = sources.size();
  GR_CHECK(num_lanes >= 1 && num_lanes <= kMaxBatchLanes,
           "BfsBatch needs 1..64 sources");
  for (const vid_t s : sources) {
    GR_CHECK(s >= 0 && s < g.num_vertices(), "BfsBatch source out of range");
  }
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  BfsBatchResult result;
  result.depth.resize(num_lanes);
  result.lane_iterations.assign(num_lanes, 0);
  // Lane-parallel depth initialization: 64 serial assign(n, -1) calls
  // are O(n * lanes) of single-threaded stores — real startup latency on
  // the batched fast path. ParallelFor's serial cutoff would defeat a
  // 64-item loop, so distribute lanes round-robin over the pool
  // directly.
  pool.Parallel([&](unsigned rank) {
    for (std::size_t l = rank; l < num_lanes; l += pool.num_threads()) {
      result.depth[l].assign(n, -1);
    }
  });
  std::array<std::int32_t*, kMaxBatchLanes> depth_of{};
  for (std::size_t l = 0; l < num_lanes; ++l) {
    depth_of[l] = result.depth[l].data();
  }

  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  // Lane-mask state, all epoch-stamped and arena-resident: a new wave on
  // a warm lease invalidates everything with three counter bumps.
  auto& visited = ws.Get<par::LaneMaskFrontier>(pslot::kBatchFirst);
  visited.Resize(n);
  visited.NewEpoch();
  auto& mask_a = ws.Get<par::LaneMaskFrontier>(pslot::kBatchFirst + 1);
  mask_a.Resize(n);
  auto& mask_b = ws.Get<par::LaneMaskFrontier>(pslot::kBatchFirst + 2);
  mask_b.Resize(n);
  par::LaneMaskFrontier* cur = &mask_a;
  par::LaneMaskFrontier* nxt = &mask_b;

  auto& frontier = ws.Get<core::VertexFrontier>(pslot::kBatchFirst + 3);
  frontier.Clear();
  auto& raw = ws.Get<std::vector<vid_t>>(pslot::kBatchFirst + 4);
  auto& candidates = ws.Get<std::vector<vid_t>>(pslot::kBatchFirst + 5);
  auto& claim = ws.Get<par::EpochBitmap>(pslot::kBatchFirst + 6);

  std::uint64_t active = par::LaneMaskOf(num_lanes);
  MsBfsProblem prob;
  prob.visited = &visited;
  prob.active = active;

  cur->NewEpoch();
  for (std::size_t l = 0; l < num_lanes; ++l) {
    const auto s = static_cast<std::size_t>(sources[l]);
    const std::uint64_t bit = std::uint64_t{1} << l;
    if (cur->OrBits(s, bit) == 0) {
      frontier.current().push_back(sources[l]);  // duplicate sources: once
    }
    visited.OrBits(s, bit);
    depth_of[l][s] = 0;
  }

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.ScaleFree(g, pool);
  adv_cfg.workspace = &ws;
  adv_cfg.model_efficiency = false;

  // Beamer's alpha assumes pull's first-parent early exit makes a probe
  // much cheaper than a candidate's full in-edge list. A multi-source
  // probe only stops once *every* remaining lane has found a parent, so
  // that advantage degrades with the lane count; an unscaled alpha makes
  // long-diameter meshes with desynchronized wavefronts pull far too
  // early and pay O(candidates) per level. Empirically (rmat + road
  // sweeps at 8/64 lanes) a 1/sqrt(lanes) discount lands the switch
  // right on both shapes, and reduces to the scalar alpha at one lane.
  const double alpha_ms = std::max(
      1.0, opts.do_alpha / std::sqrt(static_cast<double>(num_lanes)));
  core::DirectionOptimizer optimizer(g.num_vertices(), alpha_ms,
                                     opts.do_beta);
  const bool optimizing = opts.direction == core::Direction::kOptimizing;

  // Per-lane round counts come from discovery transitions: a lane's
  // scalar loop runs while its frontier is non-empty, i.e. through
  // (deepest discovery level + 1) rounds.
  std::array<std::int32_t, kMaxBatchLanes> last_discovery{};

  // Unexplored-edge mass for the Beamer controller: edges out of
  // vertices some active lane still wants. Like scalar BFS's
  // m_unvisited, it is maintained incrementally — one O(n) reduction at
  // wave start, then a frontier-sized decrement per level as vertices
  // become fully covered — instead of an O(n) rescan every level (which
  // would cost O(n * levels) on long-diameter meshes). A lane drop
  // shrinks `active` and can retroactively complete coverage, so that
  // rare path recomputes from scratch.
  const auto recompute_m_u = [&] {
    return par::TransformReduce(
        pool, n, eid_t{0}, [](eid_t a, eid_t b) { return a + b; },
        [&](std::size_t v) {
          return (~visited.Load(v) & active) != 0
                     ? g.degree(static_cast<vid_t>(v))
                     : eid_t{0};
        },
        &ws, pslot::kBatchFirst + 7);
  };
  eid_t m_u = optimizing ? recompute_m_u() : 0;

  std::int32_t level = 0;
  WallTimer timer;
  while (!frontier.empty()) {
    ctl.Checkpoint();
    const std::uint64_t keep = lanes.Poll(active);
    if (keep != active) {
      active = keep;
      prob.active = active;
      if (active == 0) break;  // every lane dropped: nothing left to serve
      if (optimizing) m_u = recompute_m_u();
    }
    ++level;
    const std::size_t n_f = frontier.size();

    bool pull = opts.direction == core::Direction::kPull;
    if (optimizing) {
      // Aggregate (union-frontier) populations drive the Beamer switch:
      // push cost is one scan of the union frontier's out-edges, pull
      // cost is bounded by edges into vertices any lane still wants.
      const eid_t m_f = par::TransformReduce(
          pool, n_f, eid_t{0}, [](eid_t a, eid_t b) { return a + b; },
          [&](std::size_t i) { return g.degree(frontier.current()[i]); },
          &ws, pslot::kBatchFirst + 7);
      pull = optimizer.ShouldPull(m_f, m_u, static_cast<vid_t>(n_f));
    }

    nxt->NewEpoch();
    frontier.next().clear();
    core::AdvanceResult adv;
    if (pull) {
      candidates.resize(n);
      const std::size_t nc = par::GenerateIf(
          pool, n, std::span<vid_t>(candidates),
          [&](std::size_t v) { return (~visited.Load(v) & active) != 0; },
          [](std::size_t v) { return static_cast<vid_t>(v); }, &ws);
      candidates.resize(nc);
      adv = core::AdvancePullMs<MsBfsPullFunctor>(
          pool, g, *cur, candidates, *nxt, &frontier.next(), prob, adv_cfg);
    } else if (opts.variant == BfsBatchVariant::kFiltered) {
      raw.clear();
      adv = core::AdvancePushMs<MsBfsPushFunctor, MsBfsProblem, false>(
          pool, g, frontier.current(), *cur, *nxt, &raw, prob, adv_cfg);
      claim.Resize(n);
      claim.NewEpoch();
      core::FilterMsUnique(pool, raw, claim, &frontier.next(), &ws);
    } else {
      adv = core::AdvancePushMs<MsBfsPushFunctor, MsBfsProblem, true>(
          pool, g, frontier.current(), *cur, *nxt, &frontier.next(), prob,
          adv_cfg);
    }
    result.stats.edges_visited += adv.edges_visited;

    // Consume: every next-frontier vertex appears exactly once, so one
    // parallel pass extracts per-lane depths from the mask transition,
    // marks the visited masks and folds the lanes-that-discovered OR.
    // The masks in `nxt` were gated on level-start visited, so they are
    // exactly the new bits.
    const std::uint64_t discovered = par::TransformReduce(
        pool, frontier.next().size(), std::uint64_t{0},
        [](std::uint64_t a, std::uint64_t b) { return a | b; },
        [&](std::size_t i) {
          const vid_t v = frontier.next()[i];
          const std::uint64_t bits =
              nxt->Load(static_cast<std::size_t>(v)) & active;
          for (std::uint64_t m = bits; m != 0; m &= m - 1) {
            depth_of[std::countr_zero(m)][static_cast<std::size_t>(v)] =
                level;
          }
          visited.OrBits(static_cast<std::size_t>(v), bits);
          return bits;
        },
        &ws, pslot::kBatchFirst + 8);
    for (std::uint64_t m = discovered; m != 0; m &= m - 1) {
      last_discovery[std::countr_zero(m)] = level;
    }

    if (optimizing) {
      // Retire this level's newly fully-covered vertices from the
      // unexplored mass (frontier-sized, not O(n)): a vertex leaves the
      // set when the consume pass above completed its coverage of every
      // active lane. `nxt` still holds the level's new bits, so the
      // pre-consume mask is recoverable.
      m_u -= par::TransformReduce(
          pool, frontier.next().size(), eid_t{0},
          [](eid_t a, eid_t b) { return a + b; },
          [&](std::size_t i) {
            const auto v =
                static_cast<std::size_t>(frontier.next()[i]);
            const std::uint64_t after = visited.Load(v) & active;
            const std::uint64_t before = after & ~nxt->Load(v);
            return after == active && before != active
                       ? g.degree(static_cast<vid_t>(v))
                       : eid_t{0};
          },
          &ws, pslot::kBatchFirst + 7);
    }

    if (opts.collect_records) {
      result.stats.records.push_back(
          {pull ? "advance-pull-ms" : "advance-push-ms", level, n_f,
           frontier.next().size(), adv.edges_visited, 1.0});
    }

    frontier.Flip();
    std::swap(cur, nxt);
    ++result.stats.iterations;
  }

  result.completed_mask = active;
  for (std::size_t l = 0; l < num_lanes; ++l) {
    result.lane_iterations[l] = last_discovery[l] + 1;
  }
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

}  // namespace gunrock
