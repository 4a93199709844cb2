#include "primitives/ppr_batch.hpp"

#include <array>
#include <bit>
#include <cmath>

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/spmv.hpp"
#include "parallel/atomics.hpp"
#include "parallel/lane_mask.hpp"
#include "parallel/reduce.hpp"
#include "primitives/bfs_batch.hpp"  // kMaxBatchLanes
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

/// Column-block propagation: one edge scan pushes every running lane's
/// scaled score. The two-step rounding (damping * rank, then * inv_out)
/// deliberately mirrors the scalar run, which stores damping * rank into
/// a scaled[] array before the advance multiplies by 1/outdeg — keeping
/// per-lane arithmetic identical to PersonalizedPagerank's.
struct MsPprProblem {
  const double* rank = nullptr;    // n x L, vertex-major
  double* next = nullptr;          // n x L, vertex-major
  const double* inv_out = nullptr; // 1/outdeg per vertex
  std::size_t stride = 0;          // L
  std::uint64_t running = 0;       // lanes still iterating
  double damping = 0.85;
};

struct MsPprFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, MsPprProblem& p) {
    const double* src = p.rank + static_cast<std::size_t>(s) * p.stride;
    double* dst = p.next + static_cast<std::size_t>(d) * p.stride;
    const double inv = p.inv_out[static_cast<std::size_t>(s)];
    for (std::uint64_t m = p.running; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const double scaled = p.damping * src[l];
      par::AtomicAdd(&dst[l], scaled * inv);
    }
    return false;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, MsPprProblem&) {}
};

/// Per-lane block reduction with par::TransformReduce's exact shape —
/// the same DefaultBlockCount partition, the same serial in-block
/// accumulation order, the same block-order combine — computed for every
/// running lane in ONE pass over the data instead of one O(n) pass per
/// lane. Each lane's sum is therefore bit-identical to the scalar run's
/// TransformReduce while the sweep reads each vertex row once.
template <typename F>
void LaneBlockReduce(par::ThreadPool& pool, std::size_t n,
                     std::uint64_t running, std::size_t stride,
                     F&& transform, double* out, core::Workspace& ws,
                     unsigned slot) {
  const std::size_t nblocks =
      par::DefaultBlockCount(n, pool.num_threads());
  auto& partial = ws.Get<std::vector<double>>(slot);
  partial.assign(nblocks * stride, 0.0);
  par::FixedBlocks(
      pool, n, nblocks, [&](std::size_t b, std::size_t lo, std::size_t hi) {
        double* acc = partial.data() + b * stride;  // zeroed above
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::uint64_t m = running; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            acc[l] += transform(i, l);
          }
        }
      });
  for (std::uint64_t m = running; m != 0; m &= m - 1) {
    const int l = std::countr_zero(m);
    double acc = 0.0;
    for (std::size_t b = 0; b < nblocks; ++b) {
      acc += partial[b * stride + l];
    }
    out[l] = acc;
  }
}

}  // namespace

PprBatchResult PprBatch(const graph::Csr& g, std::span<const vid_t> seeds,
                        const PprBatchOptions& opts) {
  return PprBatch(g, seeds, opts, RunControl{});
}

PprBatchResult PprBatch(const graph::Csr& g, std::span<const vid_t> seeds,
                        const PprBatchOptions& opts, const RunControl& ctl,
                        const BatchLaneControl& lanes) {
  const std::size_t L = seeds.size();
  GR_CHECK(L >= 1 && L <= kMaxBatchLanes, "PprBatch needs 1..64 seeds");
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  PprBatchResult result;
  result.rank.resize(L);
  result.iterations.assign(L, 0);
  if (n == 0) {
    result.completed_mask = par::LaneMaskOf(L);
    return result;
  }
  for (const vid_t s : seeds) {
    GR_CHECK(s >= 0 && s < g.num_vertices(), "seed out of range");
  }

  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  auto& all = ws.Get<std::vector<vid_t>>(pslot::kBatchFirst + 9);
  all.resize(n);
  core::ForAll(pool, n,
               [&](std::size_t v) { all[v] = static_cast<vid_t>(v); });

  auto& rank = ws.Get<std::vector<double>>(pslot::kBatchFirst + 10);
  auto& next = ws.Get<std::vector<double>>(pslot::kBatchFirst + 11);
  auto& inv_out = ws.Get<std::vector<double>>(pslot::kBatchFirst + 12);
  rank.assign(n * L, 0.0);
  next.resize(n * L);
  inv_out.resize(n);
  core::ForAll(pool, n, [&](std::size_t v) {
    const eid_t d = g.degree(static_cast<vid_t>(v));
    inv_out[v] = d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
  });
  // Initial rank == teleport: a single-seed teleport distribution is a
  // unit delta at the seed (scalar: 1.0 / seeds.size() with one seed).
  for (std::size_t l = 0; l < L; ++l) {
    rank[static_cast<std::size_t>(seeds[l]) * L + l] = 1.0;
  }

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.ScaleFree(g, pool);
  adv_cfg.workspace = &ws;
  adv_cfg.model_efficiency = false;

  MsPprProblem prob;
  prob.rank = rank.data();
  prob.next = next.data();
  prob.inv_out = inv_out.data();
  prob.stride = L;
  prob.damping = opts.damping;

  // SpMM backend: the column sweep as a merge-path gather over the
  // reverse orientation. `pre` holds the per-lane pre-scaled scores —
  // (damping * rank) * inv_out, the scalar spmv backend's exact
  // two-step rounding — so one structure walk serves all lanes.
  const bool use_spmm = opts.backend == core::SpmvBackend::kSpmv;
  const graph::Csr& rg = opts.reverse ? *opts.reverse : g;
  const auto rcols = rg.col_indices();
  auto& pre = ws.Get<std::vector<double>>(pslot::kBatchFirst + 14);
  if (use_spmm) pre.resize(n * L);

  std::uint64_t running = par::LaneMaskOf(L);
  double dangling[kMaxBatchLanes];
  double moved[kMaxBatchLanes];
  double base[kMaxBatchLanes];

  WallTimer timer;
  int it = 0;
  while (running != 0 && it < opts.max_iterations) {
    ctl.Checkpoint();
    const std::uint64_t keep = lanes.Poll(running);
    running = keep;  // dropped lanes simply stop being swept
    if (running == 0) break;
    prob.running = running;

    // Per-lane dangling mass, every lane in one sweep with the scalar
    // run's exact reduction shape (same block partition, same in-block
    // order, same combine order).
    LaneBlockReduce(
        pool, n, running, L,
        [&](std::size_t v, int l) {
          return g.degree(static_cast<vid_t>(v)) == 0 ? rank[v * L + l]
                                                      : 0.0;
        },
        dangling, ws, pslot::kBatchFirst + 13);

    if (use_spmm) {
      // Pre-scale every running lane once per vertex, then gather: the
      // SpMM writes next = base * teleport + gathered sum directly (no
      // zero pass, no atomics), with the scalar spmv backend's partition
      // and fold order per lane.
      core::ForAll(pool, n, [&](std::size_t v) {
        const double* src = rank.data() + v * L;
        double* dst = pre.data() + v * L;
        const double inv = inv_out[v];
        for (std::uint64_t m = running; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          dst[l] = (opts.damping * src[l]) * inv;
        }
      });
      for (std::uint64_t m = running; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        base[l] = 1.0 - opts.damping + opts.damping * dangling[l];
      }
      core::SpmmMergePath<double>(
          pool, rg.row_offsets(), std::span<double>(next), L, running, 0.0,
          [](double p, double q) { return p + q; },
          [&](std::size_t e, std::size_t l) {
            return pre[static_cast<std::size_t>(rcols[e]) * L + l];
          },
          [&](std::size_t v, std::size_t l, double acc) {
            const double tele =
                v == static_cast<std::size_t>(seeds[l]) ? 1.0 : 0.0;
            return base[l] * tele + acc;
          },
          &ws, pslot::kSpmvFirst);
      result.stats.edges_visited += rg.num_edges();
    } else {
      // next = base * teleport: zero everywhere (scalar: base * 0.0), the
      // full base at the seed (scalar: base * 1.0 == base).
      core::ForAll(pool, n, [&](std::size_t v) {
        double* row = next.data() + v * L;
        for (std::uint64_t m = running; m != 0; m &= m - 1) {
          row[std::countr_zero(m)] = 0.0;
        }
      });
      for (std::uint64_t m = running; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        next[static_cast<std::size_t>(seeds[l]) * L + l] =
            (1.0 - opts.damping + opts.damping * dangling[l]) * 1.0;
      }

      // One edge sweep pushes damping * rank / outdeg for every running
      // lane — the batched amortization.
      const auto adv = core::AdvancePush<MsPprFunctor>(
          pool, g, all, static_cast<std::vector<vid_t>*>(nullptr), prob,
          adv_cfg);
      result.stats.edges_visited += adv.edges_visited;
    }

    LaneBlockReduce(
        pool, n, running, L,
        [&](std::size_t v, int l) {
          return std::abs(next[v * L + l] - rank[v * L + l]);
        },
        moved, ws, pslot::kBatchFirst + 13);
    // Column write-back stands in for the scalar rank.swap(next):
    // converged/dropped lanes keep their final column untouched.
    core::ForAll(pool, n, [&](std::size_t v) {
      double* dst = rank.data() + v * L;
      const double* src = next.data() + v * L;
      for (std::uint64_t m = running; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        dst[l] = src[l];
      }
    });

    ++it;
    for (std::uint64_t m = running; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      if (moved[l] < opts.tolerance) {
        result.iterations[l] = it;
        result.completed_mask |= std::uint64_t{1} << l;
        running &= ~(std::uint64_t{1} << l);
      }
    }
  }
  // Lanes that hit the iteration cap complete like the scalar run does.
  for (std::uint64_t m = running; m != 0; m &= m - 1) {
    const int l = std::countr_zero(m);
    result.iterations[l] = it;
    result.completed_mask |= std::uint64_t{1} << l;
  }

  // De-interleave the completed columns with the pool: size every lane's
  // vector first (lane-parallel; ParallelFor's serial cutoff would
  // defeat a <= 64-item loop), then scatter row-by-row so each n x L
  // block row is read exactly once — a per-lane strided gather would
  // re-stream the whole block per lane.
  pool.Parallel([&](unsigned rank_id) {
    for (std::size_t l = rank_id; l < L; l += pool.num_threads()) {
      if ((result.completed_mask >> l) & 1) result.rank[l].resize(n);
    }
  });
  std::array<double*, kMaxBatchLanes> col_of{};
  for (std::uint64_t m = result.completed_mask; m != 0; m &= m - 1) {
    const int l = std::countr_zero(m);
    col_of[l] = result.rank[static_cast<std::size_t>(l)].data();
  }
  core::ForAll(pool, n, [&](std::size_t v) {
    const double* row = rank.data() + v * L;
    for (std::uint64_t m = result.completed_mask; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      col_of[l][v] = row[l];
    }
  });
  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.iterations = it;
  return result;
}

}  // namespace gunrock
