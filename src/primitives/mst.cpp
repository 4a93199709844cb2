#include "primitives/mst.hpp"

#include <bit>

#include "core/compute.hpp"
#include "core/workspace.hpp"
#include "parallel/atomics.hpp"
#include "parallel/compact.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

/// Packs (weight, edge id) into one atomically-minimizable 64-bit key.
/// Positive IEEE floats compare like their bit patterns, so the weight
/// occupies the high 32 bits and the edge id breaks ties.
std::uint64_t PackCandidate(weight_t w, eid_t e) {
  const std::uint32_t wbits = std::bit_cast<std::uint32_t>(w);
  return (static_cast<std::uint64_t>(wbits) << 32) |
         static_cast<std::uint32_t>(e);
}

eid_t UnpackEdge(std::uint64_t key) {
  return static_cast<eid_t>(key & 0xffffffffu);
}

inline constexpr std::uint64_t kNoCandidate = ~std::uint64_t{0};

}  // namespace

MstResult Mst(const graph::Csr& g, const MstOptions& opts) {
  return Mst(g, opts, RunControl{});
}

MstResult Mst(const graph::Csr& g, const MstOptions& opts,
              const RunControl& ctl) {
  GR_CHECK(g.has_weights(), "MST needs an edge-weighted graph");
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t m = static_cast<std::size_t>(g.num_edges());

  // Round-loop scratch, arena-hoisted so an engine lease reuses every
  // buffer across queries (slots pslot::kMstFirst..+5; every buffer is
  // fully overwritten before it is read back).
  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;
  auto& comp = ws.Get<std::vector<vid_t>>(pslot::kMstFirst);
  auto& hook = ws.Get<std::vector<vid_t>>(pslot::kMstFirst + 1);
  auto& winners = ws.Get<std::vector<eid_t>>(pslot::kMstFirst + 2);
  auto& candidate = ws.Get<std::vector<std::uint64_t>>(pslot::kMstFirst + 3);
  auto& frontier = ws.Get<std::vector<eid_t>>(pslot::kMstFirst + 4);
  auto& next_frontier = ws.Get<std::vector<eid_t>>(pslot::kMstFirst + 5);

  MstResult result;
  comp.resize(n);
  core::ForAll(pool, n,
               [&](std::size_t v) { comp[v] = static_cast<vid_t>(v); });
  hook.resize(n);
  winners.resize(n);
  candidate.resize(n);

  const auto srcs = g.edge_sources(pool);
  const auto dsts = g.col_indices();

  WallTimer timer;

  // Edge frontier: canonical arcs (src < dst). Both endpoints' components
  // bid on each arc. The kScanAll variant keeps this full list for every
  // round; kFiltered compacts it after each round.
  frontier.resize(m);
  {
    const std::size_t kept = par::GenerateIf(
        pool, m, std::span<eid_t>(frontier),
        [&](std::size_t e) { return srcs[e] < dsts[e]; },
        [](std::size_t e) { return static_cast<eid_t>(e); }, &ws);
    frontier.resize(kept);
  }

  while (!frontier.empty()) {
    ctl.Checkpoint();
    ++result.stats.iterations;
    result.stats.edges_visited += static_cast<eid_t>(frontier.size());

    // Step 1 (compute): every component's minimum outgoing edge.
    core::ForAll(pool, n,
                 [&](std::size_t v) { candidate[v] = kNoCandidate; });
    core::ForEach(pool, std::span<const eid_t>(frontier), [&](eid_t e) {
      const vid_t cu = comp[srcs[static_cast<std::size_t>(e)]];
      const vid_t cv = comp[dsts[static_cast<std::size_t>(e)]];
      if (cu == cv) return;
      const std::uint64_t key =
          PackCandidate(g.edge_weight(e), e);
      par::AtomicMin(&candidate[static_cast<std::size_t>(cu)], key);
      par::AtomicMin(&candidate[static_cast<std::size_t>(cv)], key);
    });

    // Step 2: winners join the forest (dedup: an edge may win for both of
    // its endpoints' components) and hook the components together.
    // The (weight, id) total order guarantees the hook graph is acyclic
    // except for mutual pairs, which the min-id rule breaks.
    core::ForAll(pool, n, [&](std::size_t r) {
      hook[r] = static_cast<vid_t>(r);
      if (comp[r] != static_cast<vid_t>(r)) return;  // not a root
      const std::uint64_t key = candidate[r];
      if (key == kNoCandidate) return;
      const eid_t e = UnpackEdge(key);
      const vid_t cu = comp[srcs[static_cast<std::size_t>(e)]];
      const vid_t cv = comp[dsts[static_cast<std::size_t>(e)]];
      hook[r] = (cu == static_cast<vid_t>(r)) ? cv : cu;
    });
    // Break mutual hooks (r <-> s choose the same edge): smaller id wins.
    // Only the smaller root of a pair resets its hook, and no other root
    // can read that hook as pointing back at itself, so the concurrent
    // reads race benignly (relaxed atomics).
    core::ForAll(pool, n, [&](std::size_t r) {
      const vid_t h = par::AtomicLoad(&hook[r]);
      if (h != static_cast<vid_t>(r) &&
          par::AtomicLoad(&hook[static_cast<std::size_t>(h)]) ==
              static_cast<vid_t>(r) &&
          static_cast<vid_t>(r) < h) {
        par::AtomicStore(&hook[r], static_cast<vid_t>(r));
      }
    });
    // Collect winning edges exactly once.
    std::size_t wn = 0;
    {
      wn = par::GenerateIf(
          pool, n, std::span<eid_t>(winners),
          [&](std::size_t r) {
            if (comp[r] != static_cast<vid_t>(r)) return false;
            if (candidate[r] == kNoCandidate) return false;
            const eid_t e = UnpackEdge(candidate[r]);
            // The component that the edge's *winning* endpoint hooks from
            // reports it; the mutual partner (if any) skips to avoid a
            // duplicate. Owner = smaller component id among the two.
            const vid_t cu = comp[srcs[static_cast<std::size_t>(e)]];
            const vid_t cv = comp[dsts[static_cast<std::size_t>(e)]];
            const vid_t other =
                (cu == static_cast<vid_t>(r)) ? cv : cu;
            if (candidate[static_cast<std::size_t>(other)] ==
                candidate[r]) {
              return static_cast<vid_t>(r) < other;
            }
            return true;
          },
          [&](std::size_t r) { return UnpackEdge(candidate[r]); }, &ws);
      result.tree_edges.insert(
          result.tree_edges.end(), winners.begin(),
          winners.begin() + static_cast<std::ptrdiff_t>(wn));
    }
    // No component found an outgoing edge: the forest is complete. (In the
    // filtered variant this coincides with the frontier running empty.)
    if (wn == 0) break;

    // Apply hooks, then pointer-jump to full compression.
    core::ForAll(pool, n, [&](std::size_t r) {
      if (hook[r] != static_cast<vid_t>(r)) comp[r] = hook[r];
    });
    bool changed = true;
    while (changed) {
      changed = false;
      // Pointer jumping reads labels other lanes are shortening; any
      // ancestor read is a valid jump target (relaxed atomics).
      core::ForAll(pool, n, [&](std::size_t v) {
        const vid_t parent = par::AtomicLoad(&comp[v]);
        const vid_t grand =
            par::AtomicLoad(&comp[static_cast<std::size_t>(parent)]);
        if (parent != grand) {
          par::AtomicStore(&comp[v], grand);
          par::AtomicStore(&changed, true);
        }
      });
    }

    // Step 3 (filter, kFiltered only): drop arcs that became
    // intra-component so later rounds touch only live arcs.
    if (opts.variant == MstVariant::kFiltered) {
      next_frontier.clear();
      par::AppendIf(
          pool, std::span<const eid_t>(frontier), next_frontier,
          [&](eid_t e) {
            return comp[srcs[static_cast<std::size_t>(e)]] !=
                   comp[dsts[static_cast<std::size_t>(e)]];
          },
          &ws);
      frontier.swap(next_frontier);
      if (frontier.empty()) break;
    }
  }

  result.total_weight = par::TransformReduce(
      pool, result.tree_edges.size(), 0.0,
      [](double a, double b) { return a + b; },
      [&](std::size_t i) {
        return static_cast<double>(g.edge_weight(result.tree_edges[i]));
      });
  result.num_components = static_cast<vid_t>(par::TransformReduce(
      pool, n, std::size_t{0},
      [](std::size_t a, std::size_t b) { return a + b; },
      [&](std::size_t v) {
        return comp[v] == static_cast<vid_t>(v) ? std::size_t{1} : 0;
      }));
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

}  // namespace gunrock
