#include "primitives/sssp_batch.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>

#include "core/advance_ms.hpp"
#include "core/compute.hpp"
#include "core/frontier.hpp"
#include "core/spmv.hpp"
#include "parallel/atomics.hpp"
#include "parallel/compact.hpp"
#include "parallel/for_each.hpp"
#include "parallel/lane_mask.hpp"
#include "parallel/reduce.hpp"
#include "primitives/sssp.hpp"  // SsspDeltaHeuristic
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

/// Lane-parallel relaxation across a vertex-major n x L distance block:
/// one edge scan relaxes every lane the source vertex carries, with the
/// scalar functor's exact float fold fl(dist[u] + w) per lane.
struct MsSsspProblem {
  weight_t* dist = nullptr;  // n x L, vertex-major
  const weight_t* weights = nullptr;
  std::size_t stride = 0;  // L
  std::uint64_t active = ~std::uint64_t{0};
};

struct MsSsspRelaxFunctor {
  static std::uint64_t CondEdge(vid_t u, vid_t v, eid_t e,
                                std::uint64_t lanes, MsSsspProblem& p) {
    const std::uint64_t gated = lanes & p.active;
    if (gated == 0) return 0;
    const weight_t w = p.weights[e];
    const weight_t* src = p.dist + static_cast<std::size_t>(u) * p.stride;
    weight_t* dst = p.dist + static_cast<std::size_t>(v) * p.stride;
    std::uint64_t improved = 0;
    for (std::uint64_t m = gated; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const weight_t candidate = par::AtomicLoad(&src[l]) + w;
      const weight_t old = par::AtomicMin(&dst[l], candidate);
      if (candidate < old) improved |= std::uint64_t{1} << l;
    }
    return improved;
  }
};

/// Classification verdicts for a touched vertex, packed per item so the
/// mask writes (stateful: OrBits) run once in a ForAll and the list
/// compactions re-read pure flags.
enum : std::uint8_t {
  kClassNear = 1,      // some lane's label fell inside the Δ window
  kClassFarFirst = 2,  // first far touch: append to the far pile
};

SsspBatchResult SsspBatchFrontier(const graph::Csr& g,
                                  std::span<const vid_t> sources,
                                  const SsspBatchOptions& opts,
                                  const RunControl& ctl,
                                  const BatchLaneControl& lanes,
                                  bool scale_free) {
  par::ThreadPool& pool = opts.Pool();
  const std::size_t L = sources.size();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  SsspBatchResult result;
  result.dist.resize(L);
  result.lane_iterations.assign(L, 0);

  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  auto& dist = ws.Get<std::vector<weight_t>>(pslot::kMatrixFirst);
  dist.assign(n * L, kInfinity);

  auto& mask_a = ws.Get<par::LaneMaskFrontier>(pslot::kMatrixFirst + 1);
  mask_a.Resize(n);
  auto& mask_b = ws.Get<par::LaneMaskFrontier>(pslot::kMatrixFirst + 2);
  mask_b.Resize(n);
  auto& adv_mask = ws.Get<par::LaneMaskFrontier>(pslot::kMatrixFirst + 3);
  adv_mask.Resize(n);
  auto& far_a = ws.Get<par::LaneMaskFrontier>(pslot::kMatrixFirst + 4);
  far_a.Resize(n);
  auto& far_b = ws.Get<par::LaneMaskFrontier>(pslot::kMatrixFirst + 5);
  far_b.Resize(n);
  par::LaneMaskFrontier* cur = &mask_a;
  par::LaneMaskFrontier* nxt = &mask_b;
  par::LaneMaskFrontier* far_cur = &far_a;
  par::LaneMaskFrontier* far_nxt = &far_b;

  auto& frontier = ws.Get<core::VertexFrontier>(pslot::kMatrixFirst + 6);
  frontier.Clear();
  auto& touched = ws.Get<std::vector<vid_t>>(pslot::kMatrixFirst + 7);
  auto& far_pile = ws.Get<std::vector<vid_t>>(pslot::kMatrixFirst + 8);
  auto& far_new = ws.Get<std::vector<vid_t>>(pslot::kMatrixFirst + 9);
  auto& flags = ws.Get<std::vector<std::uint8_t>>(pslot::kMatrixFirst + 10);
  far_pile.clear();

  std::uint64_t active = par::LaneMaskOf(L);
  MsSsspProblem prob;
  prob.dist = dist.data();
  prob.weights = g.weights().data();
  prob.stride = L;
  prob.active = active;

  cur->NewEpoch();
  far_cur->NewEpoch();
  for (std::size_t l = 0; l < L; ++l) {
    const auto s = static_cast<std::size_t>(sources[l]);
    const std::uint64_t bit = std::uint64_t{1} << l;
    if (cur->OrBits(s, bit) == 0) {
      frontier.current().push_back(sources[l]);  // duplicate sources: once
    }
    dist[s * L + l] = 0;
  }

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = scale_free;
  adv_cfg.workspace = &ws;
  adv_cfg.model_efficiency = false;

  weight_t delta = opts.delta;
  if (delta <= 0) delta = SsspDeltaHeuristic(g, pool);
  weight_t threshold = delta;

  // Classifies `items` (whose improved lane masks live in `from`) against
  // the Δ window: near bits re-enter the frontier mask `to`, far bits
  // accumulate in `far_to` (first far touch flagged so the far pile stays
  // duplicate-free). Flags are written per item for the list compactions.
  const auto classify = [&](std::span<const vid_t> items,
                            par::LaneMaskFrontier& from,
                            par::LaneMaskFrontier& to,
                            par::LaneMaskFrontier& far_to) {
    flags.resize(items.size());
    core::ForAll(pool, items.size(), [&](std::size_t i) {
      const auto v = static_cast<std::size_t>(items[i]);
      const std::uint64_t bits = from.Load(v) & active;
      std::uint64_t near = 0;
      for (std::uint64_t m = bits; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        if (dist[v * L + l] < threshold) near |= std::uint64_t{1} << l;
      }
      const std::uint64_t far = bits & ~near;
      std::uint8_t f = 0;
      if (near != 0) {
        to.OrBits(v, near);
        f |= kClassNear;
      }
      if (far != 0 && far_to.OrBits(v, far) == 0) f |= kClassFarFirst;
      flags[i] = f;
    });
  };
  const auto compact_by_flag = [&](std::span<const vid_t> items,
                                   std::uint8_t flag,
                                   std::vector<vid_t>& out) {
    const std::size_t base = out.size();
    out.resize(base + items.size());
    const std::size_t nc = par::GenerateIf(
        pool, items.size(),
        std::span<vid_t>(out.data() + base, items.size()),
        [&](std::size_t i) { return (flags[i] & flag) != 0; },
        [&](std::size_t i) { return items[i]; }, &ws);
    out.resize(base + nc);
  };

  std::array<std::int32_t, kMaxBatchLanes> lane_rounds{};
  WallTimer timer;

  while (!frontier.empty() || !far_pile.empty()) {
    ctl.Checkpoint();
    const std::uint64_t keep = lanes.Poll(active);
    if (keep != active) {
      active = keep;
      prob.active = active;
      if (active == 0) break;  // every lane dropped: nothing left to serve
    }

    if (frontier.empty()) {
      // Near slice exhausted: jump the Δ window straight past the
      // smallest far label (the scalar runner's hardened schedule — a
      // tiny Δ relative to the labels would otherwise stall) and re-split
      // the far pile. Labels whose lane improved below the old window are
      // re-promoted and re-relaxed, like the scalar epoch re-claim.
      const weight_t min_far = par::TransformReduce(
          pool, far_pile.size(), kInfinity,
          [](weight_t a, weight_t b) { return b < a ? b : a; },
          [&](std::size_t i) {
            const auto v = static_cast<std::size_t>(far_pile[i]);
            weight_t best = kInfinity;
            for (std::uint64_t m = far_cur->Load(v) & active; m != 0;
                 m &= m - 1) {
              const weight_t d = dist[v * L + std::countr_zero(m)];
              if (d < best) best = d;
            }
            return best;
          },
          &ws, pslot::kMatrixFirst + 11);
      if (min_far == kInfinity) break;  // only dropped lanes' bits remain
      threshold = std::max(threshold + delta, min_far + delta);
      if (!(threshold > min_far)) {
        threshold = std::nextafter(min_far, kInfinity);
      }

      cur->NewEpoch();
      far_nxt->NewEpoch();
      classify(far_pile, *far_cur, *cur, *far_nxt);
      frontier.current().clear();
      compact_by_flag(far_pile, kClassNear, frontier.current());
      far_new.clear();
      compact_by_flag(far_pile, kClassFarFirst, far_new);
      far_pile.swap(far_new);
      std::swap(far_cur, far_nxt);
      if (frontier.empty()) {
        if (!far_pile.empty()) continue;
        break;
      }
    }

    // Per-lane round bookkeeping: a lane's scalar loop runs while its
    // frontier is non-empty.
    const std::uint64_t lanes_this_round = par::TransformReduce(
        pool, frontier.size(), std::uint64_t{0},
        [](std::uint64_t a, std::uint64_t b) { return a | b; },
        [&](std::size_t i) {
          return cur->Load(static_cast<std::size_t>(frontier.current()[i])) &
                 active;
        },
        &ws, pslot::kMatrixFirst + 12);
    for (std::uint64_t m = lanes_this_round; m != 0; m &= m - 1) {
      ++lane_rounds[std::countr_zero(m)];
    }

    // Relax the union frontier. The fused first-touch dedup (OrBits'
    // previous-mask signal) emits each improved vertex exactly once, so
    // no claim filter is needed — the improvement masks accumulate in
    // adv_mask for the classification pass.
    adv_mask.NewEpoch();
    touched.clear();
    const auto adv =
        core::AdvancePushMs<MsSsspRelaxFunctor, MsSsspProblem, true>(
            pool, g, frontier.current(), *cur, adv_mask, &touched, prob,
            adv_cfg);
    result.stats.edges_visited += adv.edges_visited;

    nxt->NewEpoch();
    classify(touched, adv_mask, *nxt, *far_cur);
    frontier.next().clear();
    compact_by_flag(touched, kClassNear, frontier.next());
    compact_by_flag(touched, kClassFarFirst, far_pile);

    if (opts.collect_records) {
      result.stats.records.push_back(
          {"advance-relax-ms", result.stats.iterations + 1, frontier.size(),
           frontier.next().size(), adv.edges_visited, 1.0});
    }

    frontier.Flip();
    std::swap(cur, nxt);
    ++result.stats.iterations;
  }

  result.completed_mask = active;
  for (std::size_t l = 0; l < L; ++l) {
    result.lane_iterations[l] = lane_rounds[l];
  }

  // De-interleave the completed columns (lane-parallel sizing, then one
  // row-major sweep so each n x L block row is read exactly once).
  pool.Parallel([&](unsigned rank) {
    for (std::size_t l = rank; l < L; l += pool.num_threads()) {
      if ((result.completed_mask >> l) & 1) result.dist[l].resize(n);
    }
  });
  std::array<weight_t*, kMaxBatchLanes> col_of{};
  for (std::uint64_t m = result.completed_mask; m != 0; m &= m - 1) {
    const int l = std::countr_zero(m);
    col_of[l] = result.dist[static_cast<std::size_t>(l)].data();
  }
  core::ForAll(pool, n, [&](std::size_t v) {
    const weight_t* row = dist.data() + v * L;
    for (std::uint64_t m = result.completed_mask; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      col_of[l][v] = row[l];
    }
  });
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

SsspBatchResult SsspBatchSpmm(const graph::Csr& g,
                              std::span<const vid_t> sources,
                              const SsspBatchOptions& opts,
                              const RunControl& ctl,
                              const BatchLaneControl& lanes) {
  par::ThreadPool& pool = opts.Pool();
  const std::size_t L = sources.size();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const graph::Csr& rg = opts.reverse ? *opts.reverse : g;
  GR_CHECK(rg.has_weights(), "SsspBatch reverse graph needs weights");
  GR_CHECK(rg.num_vertices() == g.num_vertices(),
           "SsspBatch reverse graph shape mismatch");
  const auto rcols = rg.col_indices();
  const auto rw = rg.weights();

  SsspBatchResult result;
  result.dist.resize(L);
  result.lane_iterations.assign(L, 0);

  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  // Two vertex-major n x L blocks, Jacobi-style: each sweep gathers
  // next = min(cur, A ⊗.⊕ cur) over (min, +). The swap is safe for
  // retired lanes — an unchanged column is identical in both blocks, and
  // retired lanes leave `running`, so the kernel never rewrites them.
  auto& block_a = ws.Get<std::vector<weight_t>>(pslot::kMatrixFirst);
  auto& block_b = ws.Get<std::vector<weight_t>>(pslot::kMatrixFirst + 13);
  block_a.assign(n * L, kInfinity);
  block_b.resize(n * L);
  for (std::size_t l = 0; l < L; ++l) {
    block_a[static_cast<std::size_t>(sources[l]) * L + l] = 0;
  }
  weight_t* cb = block_a.data();
  weight_t* nb = block_b.data();

  std::uint64_t running = par::LaneMaskOf(L);
  WallTimer timer;
  std::int32_t it = 0;

  while (running != 0) {
    ctl.Checkpoint();
    // Poll covers already-retired lanes too: a cancellation that lands
    // after a lane's fixpoint but before the wave ends must still drop
    // the lane from the report (the engine relies on dropped ⇒ absent).
    const std::uint64_t keep = lanes.Poll(running | result.completed_mask);
    result.completed_mask &= keep;
    running &= keep;
    if (running == 0) break;

    // One relaxation round for every running lane in one structure walk.
    // A lane whose column did not move has reached its fixpoint; the
    // cheap test-then-or keeps the changed-mask update off the hot path.
    std::atomic<std::uint64_t> changed{0};
    core::SpmmMergePath<weight_t>(
        pool, rg.row_offsets(),
        std::span<weight_t>(nb, n * L), L, running, kInfinity,
        [](weight_t p, weight_t q) { return q < p ? q : p; },
        [&](std::size_t e, std::size_t l) {
          return rw[e] + cb[static_cast<std::size_t>(rcols[e]) * L + l];
        },
        [&](std::size_t v, std::size_t l, weight_t acc) {
          const weight_t cv = cb[v * L + l];
          const weight_t nv = acc < cv ? acc : cv;
          if (nv != cv &&
              ((changed.load(std::memory_order_relaxed) >> l) & 1) == 0) {
            changed.fetch_or(std::uint64_t{1} << l,
                             std::memory_order_relaxed);
          }
          return nv;
        },
        &ws, pslot::kSpmvFirst);
    result.stats.edges_visited += rg.num_edges();
    ++it;
    std::swap(cb, nb);

    const std::uint64_t done =
        running & ~changed.load(std::memory_order_relaxed);
    for (std::uint64_t m = done; m != 0; m &= m - 1) {
      result.lane_iterations[std::countr_zero(m)] = it;
    }
    result.completed_mask |= done;
    running &= ~done;
  }

  // De-interleave the completed columns from the current block.
  pool.Parallel([&](unsigned rank) {
    for (std::size_t l = rank; l < L; l += pool.num_threads()) {
      if ((result.completed_mask >> l) & 1) result.dist[l].resize(n);
    }
  });
  std::array<weight_t*, kMaxBatchLanes> col_of{};
  for (std::uint64_t m = result.completed_mask; m != 0; m &= m - 1) {
    const int l = std::countr_zero(m);
    col_of[l] = result.dist[static_cast<std::size_t>(l)].data();
  }
  core::ForAll(pool, n, [&](std::size_t v) {
    const weight_t* row = cb + v * L;
    for (std::uint64_t m = result.completed_mask; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      col_of[l][v] = row[l];
    }
  });
  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.iterations = it;
  return result;
}

}  // namespace

SsspBatchResult SsspBatch(const graph::Csr& g,
                          std::span<const vid_t> sources,
                          const SsspBatchOptions& opts) {
  return SsspBatch(g, sources, opts, RunControl{});
}

SsspBatchResult SsspBatch(const graph::Csr& g,
                          std::span<const vid_t> sources,
                          const SsspBatchOptions& opts, const RunControl& ctl,
                          const BatchLaneControl& lanes) {
  const std::size_t L = sources.size();
  GR_CHECK(L >= 1 && L <= kMaxBatchLanes, "SsspBatch needs 1..64 sources");
  GR_CHECK(g.has_weights(), "SsspBatch needs an edge-weighted graph");
  for (const vid_t s : sources) {
    GR_CHECK(s >= 0 && s < g.num_vertices(),
             "SsspBatch source out of range");
  }

  const bool scale_free = ctl.ScaleFree(g, opts.Pool());
  MatrixBackend backend = opts.backend;
  if (backend == MatrixBackend::kAuto) {
    // Bench-derived default (bench/matrix_query, DESIGN.md §11): the
    // semiring sweep's O(diameter) full-edge rounds lose badly on
    // long-diameter meshes (frontier ~4x faster on the road mesh), and
    // even on scale-free graphs — SpMM's best case — the union frontier
    // saturates within a few buckets and the frontier machinery still
    // wins ~1.5x on work efficiency. Delta-stepping is the default
    // everywhere; kSpmv stays selectable per call/query.
    backend = MatrixBackend::kFrontier;
  }
  return backend == MatrixBackend::kSpmv
             ? SsspBatchSpmm(g, sources, opts, ctl, lanes)
             : SsspBatchFrontier(g, sources, opts, ctl, lanes, scale_free);
}

}  // namespace gunrock
