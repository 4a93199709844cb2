// The advance operator (paper Sections 4.1 and 4.4).
//
// Advance generates a new frontier by visiting the neighbors of the
// current frontier. The user supplies a functor type with two static
// members that are *fused into the traversal loop at compile time* — the
// C++ analog of the paper's kernel fusion (Figure 3):
//
//   struct MyFunctor {
//     static bool CondEdge(vid_t src, vid_t dst, eid_t edge, Problem& p);
//     static void ApplyEdge(vid_t src, vid_t dst, eid_t edge, Problem& p);
//   };
//
// For every traversed edge, advance evaluates CondEdge; when it returns
// true it runs ApplyEdge and emits the destination (or the edge id, for a
// V2E advance) into the output frontier. Any per-edge computation — label
// updates, atomic relaxations, sigma accumulation — lives in the functor,
// so no intermediate results ever hit memory between "traversal" and
// "computation" steps. The multi-source advance (advance_ms.hpp) is one
// such functor: it adapts a 64-lane mask functor onto AdvancePush.
//
// Functors claim vertices by reading before the lock: most edges point
// at vertices already claimed, so a claim loads the slot first and runs
// the locked RMW only when the load shows it can still change the slot
// (par::AtomicClaim; LaneMaskFrontier::OrBits). That is exact for
// one-way slots only, which never return to the unclaimed value; a slot
// whose expected value can recur needs par::AtomicCas.
//
// Three workload mappings implement the paper's load-balancing strategies;
// see policy.hpp. All of them report edges visited and a modeled SIMT lane
// efficiency. All scratch (degree scans, TWC bins, chunk-local buffers,
// the scatter-then-compact array) comes out of the AdvanceConfig's
// Workspace, so an enactor loop that reuses its arena performs no heap
// allocation in steady state.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "core/policy.hpp"
#include "core/simt_model.hpp"
#include "core/workspace.hpp"
#include "graph/csr.hpp"
#include "parallel/bitmap.hpp"
#include "parallel/compact.hpp"
#include "parallel/for_each.hpp"
#include "parallel/scan.hpp"
#include "parallel/sorted_search.hpp"
#include "parallel/thread_pool.hpp"
#include "util/types.hpp"

namespace gunrock::core {

struct AdvanceResult {
  eid_t edges_visited = 0;
  double lane_efficiency = 1.0;
  std::size_t output_size = 0;
};

namespace detail {

template <typename OutId>
constexpr OutId Emitted(vid_t dst, eid_t edge) {
  if constexpr (std::is_same_v<OutId, vid_t>) {
    (void)edge;
    return dst;
  } else {
    (void)dst;
    return edge;
  }
}

template <typename OutId>
constexpr OutId InvalidOf() {
  if constexpr (std::is_same_v<OutId, vid_t>) {
    return kInvalidVid;
  } else {
    return kInvalidEid;
  }
}

/// The chunk-local output scaffold shared by the chunked push paths and
/// both pull advances: splits [0, n) into chunks of `grain` items (0 =
/// default), runs `body(lo, hi, local)` on each — it returns the edges it
/// visited and appends its output to `local`, which is null when `out`
/// is — then gathers the chunk buffers into `out` in chunk order.
/// Chunk-local buffers keep their capacity across calls via the arena.
template <typename OutId, typename Body>
eid_t ChunkedEmit(par::ThreadPool& pool, std::size_t n, std::size_t grain,
                  std::vector<OutId>* out, par::Workspace& wsp,
                  const Body& body) {
  if (n == 0) return 0;
  if (grain == 0) grain = par::DefaultGrain(n, pool.num_threads());
  const std::size_t num_chunks = (n + grain - 1) / grain;
  auto& locals =
      wsp.Get<std::vector<std::vector<OutId>>>(par::ws::kAdvanceLocals);
  if (out && locals.size() < num_chunks) locals.resize(num_chunks);
  auto& counts = wsp.Get<std::vector<eid_t>>(par::ws::kAdvanceCounts);
  counts.assign(num_chunks, 0);
  par::ParallelForChunks(
      pool, 0, n, grain,
      [&](std::size_t lo, std::size_t hi, std::size_t chunk, unsigned) {
        std::vector<OutId>* local = nullptr;
        if (out) {
          local = &locals[chunk];
          local->clear();  // keep capacity, drop last iteration's data
        }
        counts[chunk] = body(lo, hi, local);
      });
  par::ConcatChunks(pool, locals, out ? num_chunks : 0, out, &wsp,
                    par::ws::kAdvanceAppendOffsets);
  eid_t edges = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) edges += counts[c];
  return edges;
}

/// Serially expands items [lo, hi), appending passing destinations to
/// `local` (when non-null). Returns edges visited. A function rather than
/// ChunkedEmit's body, so its arguments live in registers instead of
/// being reloaded through the body's captures after every append.
template <typename Functor, typename Problem, typename OutId>
eid_t ExpandRange(const graph::Csr& g, std::span<const vid_t> items,
                  std::size_t lo, std::size_t hi, Problem& prob,
                  std::vector<OutId>* local) {
  eid_t edges = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const vid_t u = items[i];
    const eid_t rb = g.row_begin(u), re = g.row_end(u);
    edges += re - rb;
    for (eid_t e = rb; e < re; ++e) {
      const vid_t v = g.edge_dest(e);
      if (Functor::CondEdge(u, v, e, prob)) {
        Functor::ApplyEdge(u, v, e, prob);
        if (local) local->push_back(Emitted<OutId>(v, e));
      }
    }
  }
  return edges;
}

/// Chunked expansion over an item list: the thread-mapped path and the
/// small/medium TWC bins all reduce to this with different grains.
template <typename Functor, typename Problem, typename OutId>
eid_t ExpandChunked(par::ThreadPool& pool, const graph::Csr& g,
                    std::span<const vid_t> items, std::size_t grain,
                    Problem& prob, std::vector<OutId>* out,
                    par::Workspace& wsp) {
  return ChunkedEmit(
      pool, items.size(), grain, out, wsp,
      [&](std::size_t lo, std::size_t hi, std::vector<OutId>* local) {
        return ExpandRange<Functor, Problem, OutId>(g, items, lo, hi, prob,
                                                    local);
      });
}

/// Equal-work expansion: scan degrees, chunk total edge work evenly,
/// locate each chunk's first owner by sorted search (paper Figure 5).
/// Produces output by writing a dense slot per edge then compacting —
/// exactly the scatter-then-compact scheme of the paper's LB advance.
template <typename Functor, typename Problem, typename OutId>
eid_t ExpandEqualWork(par::ThreadPool& pool, const graph::Csr& g,
                      std::span<const vid_t> items, Problem& prob,
                      std::vector<OutId>* out, par::Workspace& wsp) {
  const std::size_t n = items.size();
  if (n == 0) return 0;
  auto& offsets = wsp.Get<std::vector<eid_t>>(par::ws::kAdvanceOffsets);
  offsets.resize(n + 1);
  const eid_t total = par::TransformExclusiveScan<eid_t>(
      pool, n, std::span<eid_t>(offsets.data(), n), eid_t{0},
      [&](std::size_t i) { return g.degree(items[i]); }, &wsp);
  offsets[n] = total;
  if (total == 0) return 0;

  auto& raw = wsp.Get<std::vector<OutId>>(par::ws::kAdvanceRaw);
  raw.resize(out ? static_cast<std::size_t>(total) : 0);
  const std::size_t grain = std::max<std::size_t>(
      512, par::DefaultGrain(static_cast<std::size_t>(total),
                             pool.num_threads()));
  par::ParallelForChunks(
      pool, 0, static_cast<std::size_t>(total), grain,
      [&](std::size_t lo, std::size_t hi, std::size_t, unsigned) {
        std::size_t s = par::FindOwner(
            std::span<const eid_t>(offsets.data(), n + 1),
            static_cast<eid_t>(lo));
        eid_t seg_end = offsets[s + 1];
        for (std::size_t p = lo; p < hi; ++p) {
          while (static_cast<eid_t>(p) >= seg_end) {
            ++s;
            seg_end = offsets[s + 1];
          }
          const vid_t u = items[s];
          const eid_t e = g.row_begin(u) + (static_cast<eid_t>(p) -
                                            offsets[s]);
          const vid_t v = g.edge_dest(e);
          const bool pass = Functor::CondEdge(u, v, e, prob);
          if (pass) Functor::ApplyEdge(u, v, e, prob);
          if (out) raw[p] = pass ? Emitted<OutId>(v, e)
                                 : InvalidOf<OutId>();
        }
      });
  if (out) {
    // Exact-size compaction directly into the output frontier: counts
    // first, then one resize to the final length — no worst-case tail is
    // value-initialized only to be shrunk away.
    par::AppendIf(
        pool,
        std::span<const OutId>(raw.data(), static_cast<std::size_t>(total)),
        *out, [](OutId x) { return x != InvalidOf<OutId>(); }, &wsp);
  }
  return total;
}

}  // namespace detail

/// Push advance from a vertex frontier. OutId selects V2V (vid_t, default)
/// or V2E (eid_t) output; pass output = nullptr for a visit-only advance
/// (e.g., PageRank's distribute step before its filter).
/// Emitted output may contain duplicates; a subsequent filter removes them
/// (idempotent mode) or the functor's atomics prevent them (atomic mode) —
/// exactly the paper's two advance flavors.
template <typename Functor, typename Problem, typename OutId = vid_t>
AdvanceResult AdvancePush(par::ThreadPool& pool, const graph::Csr& g,
                          std::span<const vid_t> input,
                          std::vector<OutId>* output, Problem& prob,
                          const AdvanceConfig& cfg = {}) {
  AdvanceResult result;
  const std::size_t n = input.size();
  if (n == 0) return result;
  par::Workspace private_arena;  // fallback when the caller passes none
  par::Workspace& wsp = cfg.workspace ? *cfg.workspace : private_arena;
  const std::size_t out_base = output ? output->size() : 0;
  const auto degree_of = [&](std::size_t i) { return g.degree(input[i]); };

  switch (ResolveLoadBalance(cfg)) {
    case LoadBalance::kThreadMapped: {
      result.edges_visited = detail::ExpandChunked<Functor, Problem, OutId>(
          pool, g, input, cfg.grain, prob, output, wsp);
      if (cfg.model_efficiency) {
        result.lane_efficiency =
            LaneEfficiencyThreadMapped(pool, n, degree_of, &wsp);
      }
      break;
    }
    case LoadBalance::kTwc: {
      // Bin items by neighbor-list size (paper Figure 4), then process
      // each bin with a matched shape: small lists chunked many-per-lane,
      // medium lists few-per-lane, large lists with equal-work splitting
      // (the CTA-cooperative role). The binning is one fused three-way
      // partition — a single classify-count pass plus a single scatter
      // pass — instead of three independent compactions.
      auto& small = wsp.Get<std::vector<vid_t>>(par::ws::kTwcSmall);
      auto& medium = wsp.Get<std::vector<vid_t>>(par::ws::kTwcMedium);
      auto& large = wsp.Get<std::vector<vid_t>>(par::ws::kTwcLarge);
      small.resize(n);
      medium.resize(n);
      large.resize(n);
      const std::array<std::size_t, 3> sizes = par::GenerateThreeWay<vid_t>(
          pool, n,
          {std::span<vid_t>(small), std::span<vid_t>(medium),
           std::span<vid_t>(large)},
          [&](std::size_t i) {
            const eid_t d = degree_of(i);
            if (d <= kTwcWarpThreshold) return 0;
            return d <= kTwcCtaThreshold ? 1 : 2;
          },
          [&](std::size_t i) { return input[i]; }, &wsp);
      result.edges_visited += detail::ExpandChunked<Functor, Problem, OutId>(
          pool, g, std::span<const vid_t>(small.data(), sizes[0]),
          std::max<std::size_t>(cfg.grain, 128), prob, output, wsp);
      result.edges_visited += detail::ExpandChunked<Functor, Problem, OutId>(
          pool, g, std::span<const vid_t>(medium.data(), sizes[1]), 16,
          prob, output, wsp);
      result.edges_visited += detail::ExpandEqualWork<Functor, Problem,
                                                      OutId>(
          pool, g, std::span<const vid_t>(large.data(), sizes[2]), prob,
          output, wsp);
      if (cfg.model_efficiency) {
        result.lane_efficiency =
            LaneEfficiencyTwc(pool, n, degree_of, &wsp);
      }
      break;
    }
    case LoadBalance::kEqualWork:
    case LoadBalance::kAuto: {  // kAuto already resolved; silences -Wswitch
      result.edges_visited = detail::ExpandEqualWork<Functor, Problem,
                                                     OutId>(
          pool, g, input, prob, output, wsp);
      if (cfg.model_efficiency) {
        result.lane_efficiency =
            LaneEfficiencyEqualWork(result.edges_visited);
      }
      break;
    }
  }
  if (output) result.output_size = output->size() - out_base;
  return result;
}

/// Pull ("bottom-up") advance, paper Section 4.5: instead of expanding the
/// current frontier, iterate over *candidate* (unvisited) vertices and
/// probe their incoming neighbors against a bitmap of the current
/// frontier; on the first hit, run the functor and emit the candidate.
/// The early break after the first valid parent is the source of pull's
/// advantage on large frontiers.
///
/// `rg` must be the reverse graph (== g for undirected graphs). The edge
/// id passed to the functor is a reverse-graph edge id.
///
/// FrontierSet is any type exposing `bool Test(std::size_t)` —
/// par::Bitmap, or par::EpochBitmap when the caller rebuilds the set each
/// direction switch and wants the O(1) epoch reset instead of a full
/// Bitmap::Reset.
template <typename Functor, typename Problem, typename FrontierSet>
AdvanceResult AdvancePull(par::ThreadPool& pool, const graph::Csr& rg,
                          const FrontierSet& frontier_bitmap,
                          std::span<const vid_t> candidates,
                          std::vector<vid_t>* output, Problem& prob,
                          const AdvanceConfig& cfg = {}) {
  AdvanceResult result;
  const std::size_t n = candidates.size();
  if (n == 0) return result;
  par::Workspace private_arena;
  par::Workspace& wsp = cfg.workspace ? *cfg.workspace : private_arena;
  const std::size_t out_base = output ? output->size() : 0;
  result.edges_visited = detail::ChunkedEmit(
      pool, n, cfg.grain, output, wsp,
      [&](std::size_t lo, std::size_t hi, std::vector<vid_t>* local) {
        eid_t edges = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const vid_t v = candidates[i];
          for (eid_t e = rg.row_begin(v); e < rg.row_end(v); ++e) {
            const vid_t u = rg.edge_dest(e);
            ++edges;
            if (frontier_bitmap.Test(static_cast<std::size_t>(u)) &&
                Functor::CondEdge(u, v, e, prob)) {
              Functor::ApplyEdge(u, v, e, prob);
              if (local) local->push_back(v);
              break;
            }
          }
        }
        return edges;
      });
  // Pull scans candidate lists item-per-lane; model accordingly.
  if (cfg.model_efficiency) {
    result.lane_efficiency = LaneEfficiencyThreadMapped(
        pool, n, [&](std::size_t i) { return rg.degree(candidates[i]); },
        &wsp);
  }
  if (output) result.output_size = output->size() - out_base;
  return result;
}

}  // namespace gunrock::core
