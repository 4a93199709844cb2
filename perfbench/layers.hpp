// Layer micro-calls: one call of each parallel / core operator over the
// workload's own graph, with a trivial functor (the style of
// bench/micro_operators.cpp), timed on a warm arena.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/advance.hpp"
#include "core/advance_ms.hpp"
#include "core/filter.hpp"
#include "core/spmv.hpp"
#include "core/workspace.hpp"
#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "parallel/bitmap.hpp"
#include "parallel/compact.hpp"
#include "parallel/lane_mask.hpp"
#include "parallel/scan.hpp"
#include "parallel/thread_pool.hpp"
#include "primitives/options.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

namespace layers {

using namespace gunrock;

struct PassEdge {
  struct P {};
  static bool CondEdge(vid_t, vid_t, eid_t, P&) { return true; }
  static void ApplyEdge(vid_t, vid_t, eid_t, P&) {}
};

struct PassVertex {
  struct P {};
  static bool CondVertex(vid_t, P&) { return true; }
  static void ApplyVertex(vid_t, P&) {}
};

struct PassLanes {
  struct P {};
  static std::uint64_t CondEdge(vid_t, vid_t, eid_t, std::uint64_t lanes,
                                P&) {
    return lanes;
  }
};

/// Fastest of `reps` timed calls of fn() after one untimed warm-up call;
/// `before` runs untimed ahead of every call (resets output state).
template <typename Before, typename F>
double LayerMs(Tracer& tr, const char* name, int reps, Before&& before,
                F&& fn) {
  before();
  fn();
  Samples s;
  for (int r = 0; r < reps; ++r) {
    before();
    s.Add(Timed(tr, name, fn));
  }
  return s.Min();
}

template <typename F>
double LayerMs(Tracer& tr, const char* name, int reps, F&& fn) {
  return LayerMs(tr, name, reps, [] {}, fn);
}

}  // namespace layers

/// Records the parallel.* and core.* per-layer metrics of graph `g`.
inline void MeasureLayers(const gunrock::graph::Csr& g,
                          gunrock::par::ThreadPool& pool, Tracer& tr,
                          int reps, Report& rep) {
  using namespace gunrock;
  using namespace layers;
  Scope layer_scope(tr, "layers");
  core::Workspace ws;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto m = static_cast<std::size_t>(g.num_edges());
  std::vector<vid_t> all(n);
  std::iota(all.begin(), all.end(), vid_t{0});

  // --- parallel ---
  {
    Samples launch;
    pool.Parallel([](unsigned) {});
    for (int r = 0; r < 1000; ++r) {
      launch.Add(Timed(tr, "parallel.launch", [&] {
        pool.Parallel([](unsigned) {});
      }));
    }
    rep.Add("parallel.launch_us", launch.Min() * 1e3, "us");
  }
  {
    std::vector<eid_t> in(m, 1), out(m);
    rep.Add("parallel.scan_ms", LayerMs(tr, "parallel.scan", reps, [&] {
              par::ExclusiveScan<eid_t>(pool, in, out, eid_t{0}, &ws);
            }), "ms");
    std::vector<vid_t> kept(n);
    rep.Add("parallel.copy_if_ms",
            LayerMs(tr, "parallel.copy_if", reps, [&] {
              par::CopyIf<vid_t>(pool, all, kept,
                                 [](vid_t v) { return v % 3 == 0; }, &ws);
            }), "ms");
  }

  // --- core: push advance under each load-balancing strategy ---
  std::vector<vid_t> out;
  out.reserve(m);
  PassEdge::P pe;
  core::AdvanceConfig cfg;
  cfg.model_efficiency = false;
  cfg.workspace = &ws;
  const auto push = [&](core::LoadBalance lb, const char* name) {
    cfg.lb = lb;
    return LayerMs(tr, name, reps, [&] { out.clear(); }, [&] {
      core::AdvancePush<PassEdge>(pool, g, all, &out, pe, cfg);
    });
  };
  rep.Add("core.advance_push.twc_ms",
          push(core::LoadBalance::kTwc, "core.advance_push.twc"), "ms");
  rep.Add("core.advance_push.equal_work_ms",
          push(core::LoadBalance::kEqualWork, "core.advance_push.equal_work"),
          "ms");
  rep.Add("core.advance_push.thread_mapped_ms",
          push(core::LoadBalance::kThreadMapped,
               "core.advance_push.thread_mapped"),
          "ms");
  {
    // Modeled SIMT lane efficiency of the strategy kAuto picks here.
    core::AdvanceConfig auto_cfg;
    auto_cfg.scale_free_hint = graph::ComputeScaleFreeHint(g, pool);
    auto_cfg.workspace = &ws;
    out.clear();
    const auto r = core::AdvancePush<PassEdge>(pool, g, all, &out, pe,
                                               auto_cfg);
    rep.Add("core.advance_push.lane_efficiency", r.lane_efficiency,
            "ratio");
  }

  // --- core: pull advance, every vertex a candidate and in the frontier ---
  {
    par::Bitmap frontier(n);
    for (std::size_t v = 0; v < n; ++v) frontier.Set(v);
    std::vector<vid_t> pulled;
    pulled.reserve(n);
    cfg.lb = core::LoadBalance::kAuto;
    rep.Add("core.advance_pull_ms",
            LayerMs(tr, "core.advance_pull", reps, [&] { pulled.clear(); },
                     [&] {
                       core::AdvancePull<PassEdge>(pool, g, frontier, all,
                                                   &pulled, pe, cfg);
                     }),
            "ms");
  }

  // --- core: merge-path SpMV (PageRank's scale-free backend) ---
  {
    std::vector<double> x(n, 1.0 / static_cast<double>(n)), y(n);
    const auto col = g.col_indices();
    rep.Add("core.spmv_ms", LayerMs(tr, "core.spmv", reps, [&] {
              core::SpmvMergePath<double>(
                  pool, g.row_offsets(), std::span<double>(y), 0.0,
                  [](double a, double b) { return a + b; },
                  [&](std::size_t e) {
                    return x[static_cast<std::size_t>(col[e])];
                  },
                  [](std::size_t, double acc) { return acc; }, &ws,
                  pslot::kAppFirst);
            }), "ms");
  }

  // --- core: lane-mask (multi-source) push advance ---
  {
    par::LaneMaskFrontier cur, next;
    cur.Resize(n);
    next.Resize(n);
    for (std::size_t v = 0; v < n; ++v) cur.OrBits(v, 1ull << (v % 64));
    PassLanes::P pl;
    cfg.lb = core::LoadBalance::kAuto;
    cfg.scale_free_hint = graph::ComputeScaleFreeHint(g, pool);
    rep.Add("core.advance_lane_mask_ms",
            LayerMs(
                tr, "core.advance_lane_mask", reps,
                [&] {
                  out.clear();
                  next.NewEpoch();
                },
                [&] {
                  core::AdvancePushMs<PassLanes>(pool, g, all, cur, next,
                                                 &out, pl, cfg);
                }),
            "ms");
  }

  // --- core: vertex and edge filters over all vertices / all edges ---
  {
    core::FilterConfig fcfg;
    fcfg.history_hash = true;  // BFS's filter configuration
    fcfg.workspace = &ws;
    PassVertex::P pv;
    rep.Add("core.filter_vertex_ms",
            LayerMs(tr, "core.filter_vertex", reps, [&] { out.clear(); },
                     [&] {
                       core::FilterVertex<PassVertex>(pool, all, &out, pv,
                                                      fcfg);
                     }),
            "ms");
    fcfg.history_hash = false;
    const auto src = g.edge_sources(pool);
    std::vector<eid_t> edges(m), kept;
    kept.reserve(m);
    std::iota(edges.begin(), edges.end(), eid_t{0});
    rep.Add("core.filter_edge_ms",
            LayerMs(tr, "core.filter_edge", reps, [&] { kept.clear(); },
                     [&] {
                       core::FilterEdge<PassEdge>(pool, src,
                                                  g.col_indices(), edges,
                                                  &kept, pe, fcfg);
                     }),
            "ms");
  }
}

}  // namespace perfbench
