// Merge-path SpMV/SpMM oracle suite.
//
// Four layers of claims, checked against serial oracles over the shared
// topology corpus (steered by GUNROCK_TEST_SEED like every other suite):
//  1. the merge-path partition covers every (row, nonzero) cell exactly
//     once, boundaries sit on their diagonals, and the cut is a pure
//     function of the structure;
//  2. the kernels are bitwise pool-width-invariant, exact semirings
//     (min-plus, or-and) reproduce the serial row-major fold bitwise,
//     and the (+,*) double semiring matches it to seam-rounding;
//  3. masked / sparse-frontier variants agree with the dense kernel on
//     member rows and never touch non-members;
//  4. the primitive backends (PageRank, HITS, PPR, PprBatch) built on
//     the kernels agree with their push counterparts, kAuto runs the
//     sweep bit for bit on every topology, and SpMM lanes are
//     bit-identical to scalar SpMV runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/env.hpp"
#include "common/oracle.hpp"
#include "common/topologies.hpp"
#include "gunrock.hpp"

namespace gunrock {
namespace {

using core::MinPlus;
using core::OrAnd;
using core::PlusTimes;
using test::TopologyCase;

/// The structural corpus every kernel test sweeps: hand-sized cases with
/// empty-ish rows (star leaves, path ends), a mesh, a planted-cluster
/// disconnected case, and a power-law RMAT whose hub rows are the whole
/// point of the merge-path split.
std::vector<TopologyCase> Corpus(bool weighted) {
  return test::CorpusBuilder()
      .Weighted(weighted)
      .Karate()
      .Path(63)
      .Star(129)
      .Grid(17, 11)
      .Disconnected(3, 40)
      .Rmat(10, 16)
      .Build();
}

/// Cross-backend score comparison. Unlike test::ExpectScoresMatch (which
/// demands bitwise equality on a single-lane pool — right for engine-vs-
/// direct runs of the *same* kernel), two backends legitimately differ in
/// last-ulp rounding: the spmv kernel refolds rows at chunk seams where
/// the frontier operators fold row-major.
void ExpectBackendsAgree(const std::vector<double>& a,
                         const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_NEAR(b[v], a[v], 1e-9 * (1.0 + std::abs(a[v])))
        << what << " vertex " << v;
  }
}

std::vector<double> RandomVector(std::size_t n, std::uint64_t salt) {
  std::mt19937_64 rng(test::TestSeed() * 1315423911u + salt);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> x(n);
  for (double& v : x) v = dist(rng);
  return x;
}

/// Serial row-major oracle: the plain fold every kernel claim is pinned
/// against. Weighted graphs apply S::Mul(weight, x[col]).
template <typename S>
std::vector<typename S::Value> SerialSpmv(
    const graph::Csr& a, std::span<const typename S::Value> x) {
  using T = typename S::Value;
  const auto offs = a.row_offsets();
  const auto cols = a.col_indices();
  const auto w = a.weights();
  std::vector<T> y(static_cast<std::size_t>(a.num_vertices()));
  for (std::size_t r = 0; r < y.size(); ++r) {
    T acc = S::Identity();
    for (auto e = static_cast<std::size_t>(offs[r]);
         e < static_cast<std::size_t>(offs[r + 1]); ++e) {
      const T xv = x[static_cast<std::size_t>(cols[e])];
      acc = S::Add(acc, w.empty() ? xv : S::Mul(static_cast<T>(w[e]), xv));
    }
    y[r] = acc;
  }
  return y;
}

// --- 1. partition invariants ------------------------------------------------

TEST(MergePathPartitionTest, CoversEveryCellExactlyOnceOnEveryDiagonal) {
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const auto offs = c.graph.row_offsets();
    const auto row_ends = offs.subspan(1);
    const std::size_t rows = row_ends.size();
    const std::size_t nnz = static_cast<std::size_t>(c.graph.num_edges());
    const std::size_t work = rows + nnz;

    const std::size_t chunk_counts[] = {1, 3, 7, par::MergePathChunks(rows, nnz),
                                        64};
    for (const std::size_t k : chunk_counts) {
      std::vector<par::MergeCoord> cut;
      par::MergePathPartition(row_ends, nnz, k, cut);
      ASSERT_EQ(cut.size(), k + 1);
      EXPECT_EQ(cut.front().row, 0u);
      EXPECT_EQ(cut.front().nnz, 0u);
      EXPECT_EQ(cut.back().row, rows);
      EXPECT_EQ(cut.back().nnz, nnz);
      for (std::size_t i = 1; i < k; ++i) {
        const par::MergeCoord b = cut[i];
        // The boundary sits exactly on its diagonal...
        EXPECT_EQ(b.row + b.nnz, work * i / k) << "chunk " << i;
        // ...and is a valid merge-path coordinate: every earlier row is
        // fully consumed, the current row not overshot.
        if (b.row > 0) {
          EXPECT_LE(static_cast<std::size_t>(row_ends[b.row - 1]), b.nnz);
        }
        if (b.row < rows) {
          EXPECT_LE(b.nnz, static_cast<std::size_t>(row_ends[b.row]));
        }
        // Monotone in both components => half-open chunk cell ranges
        // tile the path: every cell is owned by exactly one chunk.
        EXPECT_GE(cut[i].row, cut[i - 1].row);
        EXPECT_GE(cut[i].nnz, cut[i - 1].nnz);
      }
      std::size_t cells = 0;
      for (std::size_t i = 0; i < k; ++i) {
        cells += (cut[i + 1].row - cut[i].row) + (cut[i + 1].nnz - cut[i].nnz);
      }
      EXPECT_EQ(cells, work);
    }
  }
}

// --- 2. kernel vs serial oracle ---------------------------------------------

TEST(SpmvKernelTest, PlusTimesPoolWidthInvariantAndOracleClose) {
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const std::size_t n = static_cast<std::size_t>(c.graph.num_vertices());
    const auto x = RandomVector(n, 1);
    const auto oracle = SerialSpmv<PlusTimes>(c.graph, x);

    std::vector<std::vector<double>> runs;
    for (const unsigned width : {1u, 2u, 8u}) {
      par::ThreadPool pool(width);
      std::vector<double> y(n, -1.0);
      core::SpmvSemiring<PlusTimes>(pool, c.graph, x, std::span<double>(y),
                                    nullptr, 0);
      runs.push_back(std::move(y));
    }
    // Bitwise identical at every pool width (the partition and the seam
    // fold never see the thread count)...
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
    // ...and equal to the serial row fold up to the seam-refold rounding
    // of rows split across chunks.
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_NEAR(runs[0][v], oracle[v], 1e-12 * std::max(1.0, oracle[v]))
          << "vertex " << v;
    }
  }
}

TEST(SpmvKernelTest, ExactSemiringsMatchSerialOracleBitwise) {
  // min-plus candidates (x[u] + w) are each computed once and compared —
  // no fold-order rounding exists, so the kernel must equal the serial
  // oracle bitwise; same for or-and.
  for (const auto& c : Corpus(/*weighted=*/true)) {
    SCOPED_TRACE(c.name);
    const std::size_t n = static_cast<std::size_t>(c.graph.num_vertices());

    std::mt19937_64 rng(test::TestSeed() + 17);
    std::vector<weight_t> xd(n);
    std::uniform_int_distribution<int> di(0, 1000);
    for (auto& v : xd) v = static_cast<weight_t>(di(rng));
    const auto want_min = SerialSpmv<MinPlus>(c.graph, xd);

    std::vector<std::uint8_t> xb(n);
    for (auto& v : xb) v = static_cast<std::uint8_t>(di(rng) & 1);

    for (const unsigned width : {1u, 2u, 8u}) {
      par::ThreadPool pool(width);
      std::vector<weight_t> ymin(n);
      core::SpmvSemiring<MinPlus>(pool, c.graph, xd, std::span<weight_t>(ymin),
                                  nullptr, 0);
      EXPECT_EQ(ymin, want_min) << "width " << width;
    }

    // Or-and over the unweighted view of the same structure.
    const graph::Csr& g = c.graph;
    const auto cols = g.col_indices();
    const auto want_or = [&] {
      std::vector<std::uint8_t> y(n);
      const auto offs = g.row_offsets();
      for (std::size_t r = 0; r < n; ++r) {
        std::uint8_t acc = 0;
        for (auto e = static_cast<std::size_t>(offs[r]);
             e < static_cast<std::size_t>(offs[r + 1]); ++e) {
          acc |= xb[static_cast<std::size_t>(cols[e])];
        }
        y[r] = acc;
      }
      return y;
    }();
    for (const unsigned width : {1u, 2u, 8u}) {
      par::ThreadPool pool(width);
      std::vector<std::uint8_t> y(n, 255);
      core::SpmvMergePath<std::uint8_t>(
          pool, g.row_offsets(), std::span<std::uint8_t>(y), OrAnd::Identity(),
          [](std::uint8_t a, std::uint8_t b) { return OrAnd::Add(a, b); },
          [&](std::size_t e) { return xb[static_cast<std::size_t>(cols[e])]; },
          [](std::size_t, std::uint8_t acc) { return acc; }, nullptr, 0);
      EXPECT_EQ(y, want_or) << "width " << width;
    }
  }
}

TEST(SpmvKernelTest, EmptyRowsSelfLoopsAndIsolatedVerticesGetIdentity) {
  // Directed build (no symmetrize): vertex 0 keeps an empty row, 7 is
  // fully isolated, 1 carries a self-loop, 2 is a hub.
  graph::Coo coo;
  coo.num_vertices = 10;
  coo.PushEdge(1, 1);  // self-loop
  for (vid_t v = 3; v < 10; ++v) coo.PushEdge(2, v);  // hub row
  coo.PushEdge(4, 2);
  coo.PushEdge(5, 1);
  graph::BuildOptions bopts;
  bopts.symmetrize = false;
  bopts.remove_self_loops = false;
  const graph::Csr g = graph::BuildCsr(coo, bopts);
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  const auto x = RandomVector(n, 2);
  const auto oracle = SerialSpmv<PlusTimes>(g, x);
  par::ThreadPool pool(4);
  std::vector<double> y(n);
  core::SpmvSemiring<PlusTimes>(pool, g, x, std::span<double>(y), nullptr, 0);
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_DOUBLE_EQ(y[v], oracle[v]) << "vertex " << v;
  }
  EXPECT_EQ(y[0], 0.0);  // empty row folds to the identity
  EXPECT_EQ(y[7], 0.0);  // isolated vertex likewise
  EXPECT_DOUBLE_EQ(y[1], x[1]);  // the self-loop contributes exactly once

  std::vector<weight_t> xi(n, weight_t{5});
  std::vector<weight_t> ymin(n);
  core::SpmvSemiring<MinPlus>(pool, g, xi, std::span<weight_t>(ymin), nullptr,
                              0);
  EXPECT_EQ(ymin[0], kInfinity);  // min over nothing is the identity
  EXPECT_EQ(ymin[7], kInfinity);
}

// --- 3. masked and sparse variants ------------------------------------------

TEST(SpmvKernelTest, DenseMaskMatchesUnmaskedBitwiseOnMemberRows) {
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const graph::Csr& g = c.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    const auto cols = g.col_indices();
    const auto x = RandomVector(n, 3);

    par::ThreadPool pool(4);
    std::vector<double> dense(n);
    core::SpmvSemiring<PlusTimes>(pool, g, x, std::span<double>(dense),
                                  nullptr, 0);

    par::EpochBitmap mask(n);
    mask.NewEpoch();
    std::mt19937_64 rng(test::TestSeed() + 29);
    std::vector<bool> member(n);
    for (std::size_t v = 0; v < n; ++v) {
      member[v] = (rng() & 3) != 0;  // ~75% membership: seams stay masked
      if (member[v]) mask.Set(v);
    }
    constexpr double kSentinel = -7.25;
    std::vector<double> masked(n, kSentinel);
    core::SpmvMergePathMasked<double>(
        pool, g.row_offsets(), mask, std::span<double>(masked), 0.0,
        [](double a, double b) { return a + b; },
        [&](std::size_t e) { return x[static_cast<std::size_t>(cols[e])]; },
        [](std::size_t, double acc) { return acc; }, nullptr, 0);
    for (std::size_t v = 0; v < n; ++v) {
      if (member[v]) {
        // Same partition, same seams: member rows are bitwise equal.
        EXPECT_EQ(masked[v], dense[v]) << "vertex " << v;
      } else {
        EXPECT_EQ(masked[v], kSentinel) << "vertex " << v;
      }
    }
  }
}

TEST(SpmvKernelTest, SparseRowsVariantSweepsOnlySelectedRows) {
  for (const auto& c : Corpus(/*weighted=*/true)) {
    SCOPED_TRACE(c.name);
    const graph::Csr& g = c.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    const auto cols = g.col_indices();
    const auto w = g.weights();

    std::mt19937_64 rng(test::TestSeed() + 31);
    std::vector<weight_t> x(n);
    std::uniform_int_distribution<int> di(0, 500);
    for (auto& v : x) v = static_cast<weight_t>(di(rng));
    const auto dense = SerialSpmv<MinPlus>(g, x);

    std::vector<vid_t> rows;
    std::vector<bool> selected(n);
    for (std::size_t v = 0; v < n; ++v) {
      if ((rng() & 7) == 0) {  // ~12%: a genuinely sparse frontier
        rows.push_back(static_cast<vid_t>(v));
        selected[v] = true;
      }
    }

    par::ThreadPool pool(4);
    constexpr weight_t kSentinel = weight_t{-3};
    std::vector<weight_t> y(n, kSentinel);
    core::SpmvMergePathRows<weight_t>(
        pool, g.row_offsets(), rows, std::span<weight_t>(y),
        MinPlus::Identity(),
        [](weight_t a, weight_t b) { return MinPlus::Add(a, b); },
        [&](std::size_t e) {
          return MinPlus::Mul(static_cast<weight_t>(w[e]),
                              x[static_cast<std::size_t>(cols[e])]);
        },
        [](std::size_t, weight_t acc) { return acc; }, nullptr, 0);
    for (std::size_t v = 0; v < n; ++v) {
      if (selected[v]) {
        EXPECT_EQ(y[v], dense[v]) << "vertex " << v;  // exact semiring
      } else {
        EXPECT_EQ(y[v], kSentinel) << "vertex " << v;
      }
    }
  }
}

// --- 2b. semiring iterations vs traversal primitives ------------------------

TEST(SpmvSemiringTest, MinPlusFixpointEqualsSsspDistances) {
  // Jacobi Bellman-Ford: dist' = min(dist, A (min,+) dist) to fixpoint.
  // Integer [1,64] weights keep every path sum exact in float, so the
  // fixpoint must equal Sssp's distances bitwise.
  for (const auto& c : Corpus(/*weighted=*/true)) {
    SCOPED_TRACE(c.name);
    const graph::Csr& g = c.graph;  // symmetric: g is its own reverse
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    par::ThreadPool pool(4);
    par::Workspace ws;

    std::vector<weight_t> dist(n, kInfinity);
    dist[static_cast<std::size_t>(c.source)] = weight_t{0};
    std::vector<weight_t> relaxed(n);
    for (std::size_t round = 0; round < n; ++round) {
      core::SpmvSemiring<MinPlus>(pool, g, dist, std::span<weight_t>(relaxed),
                                  &ws, 0);
      bool changed = false;
      for (std::size_t v = 0; v < n; ++v) {
        const weight_t next = MinPlus::Add(dist[v], relaxed[v]);
        changed |= next != dist[v];
        dist[v] = next;
      }
      if (!changed) break;
    }

    const auto want = Sssp(g, c.source);
    EXPECT_EQ(dist, want.dist);
  }
}

TEST(SpmvSemiringTest, OrAndFixpointEqualsBfsReachability) {
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const graph::Csr& g = c.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    par::ThreadPool pool(4);
    par::Workspace ws;

    std::vector<std::uint8_t> reach(n, 0);
    reach[static_cast<std::size_t>(c.source)] = 1;
    std::vector<std::uint8_t> next(n);
    const auto want = Bfs(g, c.source);
    for (std::size_t round = 0; round < n; ++round) {
      core::SpmvSemiring<OrAnd>(pool, g, reach,
                                std::span<std::uint8_t>(next), &ws, 0);
      bool changed = false;
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint8_t merged = reach[v] | next[v];
        changed |= merged != reach[v];
        reach[v] = merged;
      }
      // After k sweeps, reach is exactly the depth <= k ball.
      for (std::size_t v = 0; v < n; ++v) {
        const bool within = want.depth[v] >= 0 &&
                            static_cast<std::size_t>(want.depth[v]) <= round + 1;
        EXPECT_EQ(reach[v] != 0, within)
            << "vertex " << v << " round " << round;
      }
      if (!changed) break;
    }
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(reach[v] != 0, want.depth[v] >= 0) << "vertex " << v;
    }
  }
}

// --- 4. SpMM and primitive backends -----------------------------------------

TEST(SpmmKernelTest, EveryLaneBitIdenticalToScalarRunFrozenLanesUntouched) {
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const graph::Csr& g = c.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    const auto cols = g.col_indices();
    constexpr std::size_t kLanes = 5;
    const std::uint64_t running = 0b10111;  // lane 3 frozen mid-batch

    std::vector<std::vector<double>> x;
    for (std::size_t l = 0; l < kLanes; ++l) {
      x.push_back(RandomVector(n, 100 + l));
    }

    for (const unsigned width : {1u, 8u}) {
      par::ThreadPool pool(width);
      par::Workspace ws;
      constexpr double kSentinel = -42.0;
      std::vector<double> y(n * kLanes, kSentinel);
      core::SpmmMergePath<double>(
          pool, g.row_offsets(), std::span<double>(y), kLanes, running, 0.0,
          [](double a, double b) { return a + b; },
          [&](std::size_t e, std::size_t l) {
            return x[l][static_cast<std::size_t>(cols[e])];
          },
          [](std::size_t, std::size_t, double acc) { return acc; }, &ws, 0);

      for (std::size_t l = 0; l < kLanes; ++l) {
        if (((running >> l) & 1) == 0) {
          for (std::size_t v = 0; v < n; ++v) {
            EXPECT_EQ(y[v * kLanes + l], kSentinel) << "frozen lane touched";
          }
          continue;
        }
        std::vector<double> scalar(n);
        core::SpmvMergePath<double>(
            pool, g.row_offsets(), std::span<double>(scalar), 0.0,
            [](double a, double b) { return a + b; },
            [&](std::size_t e) {
              return x[l][static_cast<std::size_t>(cols[e])];
            },
            [](std::size_t, double acc) { return acc; }, &ws, 0);
        for (std::size_t v = 0; v < n; ++v) {
          EXPECT_EQ(y[v * kLanes + l], scalar[v])
              << "lane " << l << " vertex " << v << " width " << width;
        }
      }
    }
  }
}

TEST(SpmvBackendTest, PagerankPullSweepMatchesPushAdvance) {
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    PagerankOptions opts;
    opts.max_iterations = 25;
    opts.tolerance = 0.0;  // both formulations run the full budget
    opts.backend = core::SpmvBackend::kFrontier;
    const auto push = Pagerank(c.graph, opts);
    opts.pull = true;
    opts.backend = core::SpmvBackend::kSpmv;
    const auto pull = Pagerank(c.graph, opts);
    EXPECT_EQ(pull.iterations, push.iterations);
    ExpectBackendsAgree(push.rank, pull.rank, "pagerank pull vs push");
  }
}

TEST(SpmvBackendTest, AutoIsTheSweepBitwiseAtEveryPoolWidth) {
  // kAuto reads no topology: on meshes and paths as on power-law graphs
  // it runs the same sweep as kSpmv, whose seams are fixed by structure,
  // so the scores match a 1-lane kSpmv run bit for bit at any width.
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const graph::Csr& g = c.graph;  // symmetric: rg == g structurally
    par::ThreadPool one(1);
    PagerankOptions popts;
    popts.pull = true;
    popts.max_iterations = 20;
    popts.tolerance = 0.0;
    popts.pool = &one;
    popts.backend = core::SpmvBackend::kSpmv;
    const auto pr_ref = Pagerank(g, popts);
    HitsOptions hopts;
    hopts.max_iterations = 10;
    hopts.tolerance = 0.0;
    hopts.pool = &one;
    hopts.backend = core::SpmvBackend::kSpmv;
    const auto hits_ref = Hits(g, g, hopts);
    SalsaOptions sopts;
    sopts.max_iterations = 10;
    sopts.tolerance = 0.0;
    sopts.pool = &one;
    sopts.backend = core::SpmvBackend::kSpmv;
    const auto salsa_ref = Salsa(g, g, sopts);

    for (const unsigned width : {1u, 4u, 16u}) {
      SCOPED_TRACE(width);
      par::ThreadPool pool(width);
      popts.pool = hopts.pool = sopts.pool = &pool;
      popts.backend = hopts.backend = sopts.backend =
          core::SpmvBackend::kAuto;
      EXPECT_EQ(Pagerank(g, popts).rank, pr_ref.rank);
      const auto hits = Hits(g, g, hopts);
      EXPECT_EQ(hits.authority, hits_ref.authority);
      EXPECT_EQ(hits.hub, hits_ref.hub);
      const auto salsa = Salsa(g, g, sopts);
      EXPECT_EQ(salsa.authority, salsa_ref.authority);
      EXPECT_EQ(salsa.hub, salsa_ref.hub);
    }
  }
}

TEST(SpmvBackendTest, HitsAndSalsaSpmvMatchScatterGather) {
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const graph::Csr& g = c.graph;  // symmetric: rg == g structurally
    HitsOptions hopts;
    hopts.max_iterations = 15;
    hopts.tolerance = 0.0;
    hopts.backend = core::SpmvBackend::kFrontier;
    const auto hf = Hits(g, g, hopts);
    hopts.backend = core::SpmvBackend::kSpmv;
    const auto hs = Hits(g, g, hopts);
    EXPECT_EQ(hs.iterations, hf.iterations);
    ExpectBackendsAgree(hf.authority, hs.authority, "hits authority");
    ExpectBackendsAgree(hf.hub, hs.hub, "hits hub");

    SalsaOptions sopts;
    sopts.max_iterations = 15;
    sopts.tolerance = 0.0;
    sopts.backend = core::SpmvBackend::kFrontier;
    const auto sf = Salsa(g, g, sopts);
    sopts.backend = core::SpmvBackend::kSpmv;
    const auto ss = Salsa(g, g, sopts);
    EXPECT_EQ(ss.iterations, sf.iterations);
    ExpectBackendsAgree(sf.authority, ss.authority, "salsa authority");
    ExpectBackendsAgree(sf.hub, ss.hub, "salsa hub");
  }
}

TEST(SpmvBackendTest, PprSpmvMatchesPush) {
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const auto seeds = test::SpreadSources(c.graph, 3);
    PprOptions opts;
    opts.max_iterations = 20;
    opts.tolerance = 0.0;
    opts.backend = core::SpmvBackend::kFrontier;
    const auto push = PersonalizedPagerank(c.graph, seeds, opts);
    opts.backend = core::SpmvBackend::kSpmv;  // symmetric: reverse == g
    const auto spmv = PersonalizedPagerank(c.graph, seeds, opts);
    EXPECT_EQ(spmv.iterations, push.iterations);
    ExpectBackendsAgree(push.rank, spmv.rank, "ppr backend");
  }
}

TEST(SpmvBackendTest, PprBatchSpmmLaneBitIdenticalToScalarSpmvBackend) {
  // The SpMM backend's contract is stronger than push-mode's "same
  // rounding spread": lane l must be *bitwise* the scalar spmv-backend
  // run at any pool width, because both walk the same partition and fold
  // the same seams in the same order.
  for (const auto& c : Corpus(/*weighted=*/false)) {
    SCOPED_TRACE(c.name);
    const auto seeds = test::SpreadSources(c.graph, 4);
    PprBatchOptions bopts;
    bopts.max_iterations = 15;
    bopts.backend = core::SpmvBackend::kSpmv;
    const auto batch = PprBatch(c.graph, seeds, bopts);
    ASSERT_EQ(batch.completed_mask, (std::uint64_t{1} << seeds.size()) - 1);

    PprOptions sopts;
    sopts.max_iterations = 15;
    sopts.tolerance = bopts.tolerance;
    sopts.damping = bopts.damping;
    sopts.backend = core::SpmvBackend::kSpmv;
    for (std::size_t l = 0; l < seeds.size(); ++l) {
      const vid_t seed[] = {seeds[l]};
      const auto scalar = PersonalizedPagerank(c.graph, seed, sopts);
      EXPECT_EQ(batch.iterations[l], scalar.iterations) << "lane " << l;
      EXPECT_EQ(batch.rank[l], scalar.rank) << "lane " << l;
    }
  }
}

TEST(SpmvKernelTest, WarmWorkspaceAllocatesNothingInSteadyState) {
  const auto corpus = Corpus(/*weighted=*/false);
  const graph::Csr& g = corpus.back().graph;  // the RMAT case
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const auto x = RandomVector(n, 9);
  std::vector<double> y(n);

  par::ThreadPool pool(4);
  par::Workspace ws;
  core::SpmvSemiring<PlusTimes>(pool, g, x, std::span<double>(y), &ws, 0);
  const std::size_t warm = ws.creations();
  for (int i = 0; i < 3; ++i) {
    core::SpmvSemiring<PlusTimes>(pool, g, x, std::span<double>(y), &ws, 0);
  }
  EXPECT_EQ(ws.creations(), warm) << "steady-state iteration allocated";
}

}  // namespace
}  // namespace gunrock
