// Multi-source (lane-mask) advance and filter operators.
//
// The scalar operators in advance.hpp traverse the frontier of *one*
// query; these variants traverse the union frontier of up to 64 queries
// at once, propagating a 64-bit lane mask per vertex instead of a scalar
// visitation: `next[v] |= frontier[u] & ~visited[v]`. Every CSR row scan
// is thereby amortized across all concurrent lanes — the linear-algebra
// view (one sweep over an N-column bit-packed frontier matrix) that turns
// N single-source traversals into one.
//
// Functor contract (fused into the traversal loop like the scalar
// operators'):
//
//   struct MyMsFunctor {
//     // Subset of `lanes` (the source vertex's frontier mask) that
//     // should propagate across edge (u, v); 0 = none. Typically
//     // `lanes & ~visited(v) & active`.
//     static std::uint64_t CondEdge(vid_t u, vid_t v, eid_t e,
//                                   std::uint64_t lanes, Problem& p);
//   };
//
// The lane mask is a different per-edge operation, not a different
// traversal, so push is not a second operator: AdvancePushMs wraps the
// lane functor in an edge adapter (detail::LaneMaskEdge) and runs the
// scalar AdvancePush, whose load-balance strategies then serve the
// scalar and the lane-mask payload alike. The adapter reads `cur` and
// ORs into `next` during the same sweep, so `cur` must not alias `next`.
//
// Push comes in the same two flavors as scalar BFS: the *fused-claim*
// variant (kEmitOnce = true) dedups the output frontier exactly via
// LaneMaskFrontier::OrBits' first-touch signal, while the *filtered*
// variant (kEmitOnce = false) emits every touched vertex and leaves the
// dedup to FilterMsUnique — the multi-source analog of the idempotent
// advance + visited-claim filter pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/advance.hpp"
#include "core/filter.hpp"
#include "core/policy.hpp"
#include "graph/csr.hpp"
#include "parallel/bitmap.hpp"
#include "parallel/lane_mask.hpp"
#include "parallel/thread_pool.hpp"
#include "util/types.hpp"

namespace gunrock::core {

namespace detail {

template <typename Problem>
struct LaneMaskProblem {
  const par::LaneMaskFrontier& cur;
  par::LaneMaskFrontier& next;
  Problem& prob;
};

/// Scalar edge functor over a lane-mask functor: CondEdge propagates the
/// lanes the lane functor passes into `next` and reports whether the
/// destination should be emitted — on its first touch this level under
/// kEmitOnce, on every propagating edge otherwise.
template <typename Functor, typename Problem, bool kEmitOnce>
struct LaneMaskEdge {
  static bool CondEdge(vid_t u, vid_t v, eid_t e,
                       LaneMaskProblem<Problem>& p) {
    const std::uint64_t lanes = p.cur.Load(static_cast<std::size_t>(u));
    if (lanes == 0) return false;  // all of u's lanes were dropped mid-wave
    const std::uint64_t prop = Functor::CondEdge(u, v, e, lanes, p.prob);
    if (prop == 0) return false;
    const std::uint64_t prev =
        p.next.OrBits(static_cast<std::size_t>(v), prop);
    return !kEmitOnce || prev == 0;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, LaneMaskProblem<Problem>&) {}
};

}  // namespace detail

/// Multi-source push advance over the union frontier `input` (each item's
/// lane mask read from `cur`). Propagated masks are ORed into `next`;
/// touched vertices are appended to `output` — exactly once per vertex
/// when kEmitOnce (fused-claim dedup via OrBits' first-touch signal), or
/// once per discovering edge otherwise (pair with FilterMsUnique).
template <typename Functor, typename Problem, bool kEmitOnce = true>
AdvanceResult AdvancePushMs(par::ThreadPool& pool, const graph::Csr& g,
                            std::span<const vid_t> input,
                            const par::LaneMaskFrontier& cur,
                            par::LaneMaskFrontier& next,
                            std::vector<vid_t>* output, Problem& prob,
                            const AdvanceConfig& cfg = {}) {
  detail::LaneMaskProblem<Problem> lane_prob{cur, next, prob};
  return AdvancePush<detail::LaneMaskEdge<Functor, Problem, kEmitOnce>>(
      pool, g, input, output, lane_prob, cfg);
}

/// Multi-source pull advance: for every candidate vertex (one with lanes
/// still to discover), probe incoming neighbors and gather the union of
/// their frontier masks, stopping early once every remaining lane has
/// found a parent — the multi-source generalization of scalar pull's
/// first-parent early break, which degrades gracefully as lanes fill in.
///
/// Functor contract:
///   static std::uint64_t Remaining(vid_t v, Problem& p);
///     -> lanes candidate v still wants (typically ~visited(v) & active).
///
/// `rg` must be the reverse graph. Candidates are owned by exactly one
/// chunk, so discovered vertices are emitted exactly once.
template <typename Functor, typename Problem>
AdvanceResult AdvancePullMs(par::ThreadPool& pool, const graph::Csr& rg,
                            const par::LaneMaskFrontier& cur,
                            std::span<const vid_t> candidates,
                            par::LaneMaskFrontier& next,
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
          const std::uint64_t rem = Functor::Remaining(v, prob);
          if (rem == 0) continue;
          std::uint64_t acc = 0;
          for (eid_t e = rg.row_begin(v); e < rg.row_end(v); ++e) {
            const vid_t u = rg.edge_dest(e);
            ++edges;
            acc |= cur.Load(static_cast<std::size_t>(u)) & rem;
            if (acc == rem) break;  // every remaining lane found a parent
          }
          if (acc != 0) {
            next.OrBits(static_cast<std::size_t>(v), acc);
            if (local) local->push_back(v);
          }
        }
        return edges;
      });
  if (output) result.output_size = output->size() - out_base;
  return result;
}

/// Multi-source filter: exact-dedups the raw vertex list a kEmitOnce =
/// false push produced (one entry per discovering edge) down to one entry
/// per vertex, via an epoch-stamped claim — the multi-source analog of
/// idempotent BFS's visited-bitmap filter. Built on FilterVertex because
/// the claim is stateful: FilterVertex evaluates the condition exactly
/// once per item, in the same pass that writes the output. `claim` must
/// be sized to |V| and fresh (NewEpoch) for this level.
struct MsClaimProblem {
  par::EpochBitmap* claim = nullptr;
};

struct MsClaimFunctor {
  static bool CondVertex(vid_t v, MsClaimProblem& p) {
    return p.claim->TestAndSet(static_cast<std::size_t>(v));
  }
  static void ApplyVertex(vid_t, MsClaimProblem&) {}
};

inline std::size_t FilterMsUnique(par::ThreadPool& pool,
                                  std::span<const vid_t> raw,
                                  par::EpochBitmap& claim,
                                  std::vector<vid_t>* output,
                                  par::Workspace* wsp = nullptr) {
  MsClaimProblem prob{&claim};
  FilterConfig cfg;
  cfg.workspace = wsp;
  return FilterVertex<MsClaimFunctor>(pool, raw, output, prob, cfg)
      .output_size;
}

}  // namespace gunrock::core
