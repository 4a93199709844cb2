#include "primitives/sets.hpp"

#include <algorithm>

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "parallel/atomics.hpp"
#include "parallel/compact.hpp"
#include "parallel/reduce.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

/// Deterministic per-(vertex, round) priority; ties broken by vertex id.
inline std::uint64_t Priority(std::uint64_t seed, vid_t v, int round) {
  return SplitMix64(seed ^ (static_cast<std::uint64_t>(round) << 32 ^
                            static_cast<std::uint64_t>(v)));
}

inline bool Beats(std::uint64_t pa, vid_t a, std::uint64_t pb, vid_t b) {
  return pa > pb || (pa == pb && a > b);
}

}  // namespace

ColoringResult GraphColoring(const graph::Csr& g,
                             const ColoringOptions& opts) {
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  ColoringResult result;
  result.color.assign(n, -1);

  core::VertexFrontier frontier(n);
  frontier.current().resize(n);
  core::ForAll(pool, n, [&](std::size_t v) {
    frontier.current()[v] = static_cast<vid_t>(v);
  });
  // Round-start snapshot of undecided vertices: the winner test must not
  // observe colors written concurrently within the round, or two adjacent
  // vertices could both win.
  std::vector<std::uint8_t> undecided(n, 1);

  WallTimer timer;
  while (!frontier.empty()) {
    const int round = result.rounds;
    // Compute step: find local priority maxima among uncolored vertices
    // and give each the smallest color unused in its neighborhood. At most
    // one of any adjacent undecided pair wins (total priority order), so
    // winners read only stable neighbor colors and write only their own.
    core::ForEach(
        pool, std::span<const vid_t>(frontier.current()), [&](vid_t v) {
          const std::uint64_t pv = Priority(opts.seed, v, round);
          for (const vid_t u : g.neighbors(v)) {
            if (u != v && undecided[static_cast<std::size_t>(u)] &&
                Beats(Priority(opts.seed, u, round), u, pv, v)) {
              return;  // a higher-priority uncolored neighbor exists
            }
          }
          // Winner: pick the smallest free color.
          std::uint64_t used = 0;  // bitmask for colors < 64
          std::vector<std::int32_t> overflow;
          for (const vid_t u : g.neighbors(v)) {
            const std::int32_t c = result.color[u];
            if (c < 0) continue;
            if (c < 64) {
              used |= 1ULL << c;
            } else {
              overflow.push_back(c);
            }
          }
          std::int32_t c = 0;
          while (true) {
            const bool taken =
                c < 64 ? ((used >> c) & 1) != 0
                       : std::find(overflow.begin(), overflow.end(), c) !=
                             overflow.end();
            if (!taken) break;
            ++c;
          }
          result.color[v] = c;
        });
    result.stats.edges_visited += par::TransformReduce(
        pool, frontier.size(), eid_t{0},
        [](eid_t a, eid_t b) { return a + b; },
        [&](std::size_t i) { return g.degree(frontier.current()[i]); });

    // Filter step: keep the still-uncolored and refresh the snapshot.
    core::ForEach(pool, std::span<const vid_t>(frontier.current()),
                  [&](vid_t v) {
                    undecided[static_cast<std::size_t>(v)] =
                        result.color[v] < 0 ? 1 : 0;
                  });
    frontier.next().resize(frontier.size());
    const std::size_t kept = par::CopyIf(
        pool, std::span<const vid_t>(frontier.current()),
        std::span<vid_t>(frontier.next()),
        [&](vid_t v) { return result.color[v] < 0; });
    frontier.next().resize(kept);
    frontier.Flip();
    ++result.rounds;
  }

  result.num_colors = 1 + par::TransformReduce(
                              pool, n, std::int32_t{-1},
                              [](std::int32_t a, std::int32_t b) {
                                return std::max(a, b);
                              },
                              [&](std::size_t v) { return result.color[v]; });
  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.iterations = result.rounds;
  return result;
}

MisResult MaximalIndependentSet(const graph::Csr& g, const MisOptions& opts) {
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  MisResult result;
  result.in_set.assign(n, 0);
  // 0 = undecided, 1 = in set, 2 = excluded.
  std::vector<std::uint8_t> state(n, 0);

  core::VertexFrontier frontier(n);
  frontier.current().resize(n);
  core::ForAll(pool, n, [&](std::size_t v) {
    frontier.current()[v] = static_cast<vid_t>(v);
  });

  // Round-start snapshot: the winner test must ignore state written
  // concurrently within the round (a neighbor turning 1 mid-round would
  // otherwise stop blocking and let two adjacent vertices both win).
  std::vector<std::uint8_t> undecided(n, 1);

  WallTimer timer;
  while (!frontier.empty()) {
    const int round = result.rounds;
    // Luby step 1: undecided local maxima join the set.
    core::ForEach(
        pool, std::span<const vid_t>(frontier.current()), [&](vid_t v) {
          const std::uint64_t pv = Priority(opts.seed, v, round);
          for (const vid_t u : g.neighbors(v)) {
            if (u != v && undecided[static_cast<std::size_t>(u)] &&
                Beats(Priority(opts.seed, u, round), u, pv, v)) {
              return;
            }
          }
          par::AtomicStore(&state[v], std::uint8_t{1});
        });
    // Luby step 2: neighbors of fresh members are excluded. A neighbour's
    // state may turn 0 -> 2 concurrently; either value reads "not a
    // member", so the race is benign and relaxed atomics express it.
    core::ForEach(pool, std::span<const vid_t>(frontier.current()),
                  [&](vid_t v) {
                    if (par::AtomicLoad(&state[v]) != 0) return;
                    for (const vid_t u : g.neighbors(v)) {
                      if (par::AtomicLoad(&state[u]) == 1) {
                        par::AtomicStore(&state[v], std::uint8_t{2});
                        return;
                      }
                    }
                  });
    result.stats.edges_visited += 2 * par::TransformReduce(
                                          pool, frontier.size(), eid_t{0},
                                          [](eid_t a, eid_t b) {
                                            return a + b;
                                          },
                                          [&](std::size_t i) {
                                            return g.degree(
                                                frontier.current()[i]);
                                          });
    // Filter: survivors stay undecided; refresh the snapshot.
    core::ForEach(pool, std::span<const vid_t>(frontier.current()),
                  [&](vid_t v) {
                    undecided[static_cast<std::size_t>(v)] =
                        state[static_cast<std::size_t>(v)] == 0 ? 1 : 0;
                  });
    frontier.next().resize(frontier.size());
    const std::size_t kept = par::CopyIf(
        pool, std::span<const vid_t>(frontier.current()),
        std::span<vid_t>(frontier.next()),
        [&](vid_t v) { return state[v] == 0; });
    frontier.next().resize(kept);
    frontier.Flip();
    ++result.rounds;
  }

  core::ForAll(pool, n, [&](std::size_t v) {
    result.in_set[v] = state[v] == 1 ? 1 : 0;
  });
  result.set_size = static_cast<vid_t>(par::TransformReduce(
      pool, n, std::size_t{0},
      [](std::size_t a, std::size_t b) { return a + b; },
      [&](std::size_t v) {
        return result.in_set[v] ? std::size_t{1} : 0;
      }));
  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.iterations = result.rounds;
  return result;
}

KCoreResult KCore(const graph::Csr& g, const KCoreOptions& opts) {
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  KCoreResult result;
  result.core.assign(n, 0);

  std::vector<std::int64_t> remaining_degree(n);
  std::vector<std::uint8_t> alive(n, 1);
  core::ForAll(pool, n, [&](std::size_t v) {
    remaining_degree[v] = g.degree(static_cast<vid_t>(v));
  });
  std::size_t alive_count = n;

  WallTimer timer;
  std::vector<vid_t> frontier(n), next(n);
  for (std::int32_t k = 1; alive_count > 0; ++k) {
    // Peel every vertex whose remaining degree is below k; repeat until
    // the k-shell is empty (removals cascade).
    while (true) {
      frontier.resize(n);
      const std::size_t nf = par::GenerateIf(
          pool, n, std::span<vid_t>(frontier),
          [&](std::size_t v) {
            return alive[v] && remaining_degree[v] < k;
          },
          [](std::size_t v) { return static_cast<vid_t>(v); });
      frontier.resize(nf);
      if (nf == 0) break;
      core::ForEach(pool, std::span<const vid_t>(frontier), [&](vid_t v) {
        alive[static_cast<std::size_t>(v)] = 0;
        result.core[static_cast<std::size_t>(v)] = k - 1;
      });
      core::ForEach(pool, std::span<const vid_t>(frontier), [&](vid_t v) {
        for (const vid_t u : g.neighbors(v)) {
          par::AtomicAdd(&remaining_degree[static_cast<std::size_t>(u)],
                         std::int64_t{-1});
        }
      });
      alive_count -= nf;
      result.stats.edges_visited += par::TransformReduce(
          pool, nf, eid_t{0}, [](eid_t a, eid_t b) { return a + b; },
          [&](std::size_t i) { return g.degree(frontier[i]); });
      ++result.stats.iterations;
    }
  }
  result.degeneracy = par::TransformReduce(
      pool, n, std::int32_t{0},
      [](std::int32_t a, std::int32_t b) { return std::max(a, b); },
      [&](std::size_t v) { return result.core[v]; });
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

}  // namespace gunrock
