// Batched multi-source primitives (BfsBatch / PprBatch) vs per-source
// direct runs: the bit-identical-per-lane contract over the shared
// topology corpus, across every push/pull x variant combination, plus
// the per-lane drop (BatchLaneControl) and LaneMaskFrontier semantics
// the engine's coalescing pass relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/env.hpp"
#include "common/oracle.hpp"
#include "common/topologies.hpp"
#include "gunrock.hpp"

namespace gunrock {
namespace {

using test::TopologyCase;

const std::vector<TopologyCase>& Cases() {
  static const auto* cases = new std::vector<TopologyCase>(
      test::CorpusBuilder()
          .Karate()
          .Path(257)
          .Star(100)
          .Grid(29, 17)
          .BinaryTree(9)
          .Rmat(11, 8)
          .Road(12, 9)
          .Disconnected(4, 48)
          .Build());
  return *cases;
}

/// 64 deterministic, well-spread sources (duplicates possible and
/// intended on tiny graphs — a coalesced wave may carry repeat queries).
std::vector<vid_t> WaveSources(const graph::Csr& g) {
  return test::SpreadSources(g, kMaxBatchLanes);
}

/// Scalar depth references, one per lane, computed by the classic
/// single-source runner the batch must reproduce exactly.
std::vector<std::vector<std::int32_t>> ScalarDepths(
    const graph::Csr& g, const std::vector<vid_t>& sources,
    bool idempotent) {
  BfsOptions opts;
  opts.compute_preds = false;
  opts.idempotent = idempotent;
  std::vector<std::vector<std::int32_t>> out;
  out.reserve(sources.size());
  for (const vid_t s : sources) {
    out.push_back(Bfs(g, s, opts).depth);
  }
  return out;
}

struct BatchConfig {
  core::Direction direction;
  BfsBatchVariant variant;
};

std::string BatchConfigName(
    const ::testing::TestParamInfo<std::tuple<std::size_t, BatchConfig>>&
        info) {
  const auto& [case_idx, cfg] = info.param;
  std::string name = Cases()[case_idx].name;
  name += "_";
  name += ToString(cfg.direction);
  name += cfg.variant == BfsBatchVariant::kFused ? "_fused" : "_filtered";
  return test::SafeTestName(std::move(name));
}

class BfsBatchParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, BatchConfig>> {
};

TEST_P(BfsBatchParamTest, EveryLaneBitIdenticalToDirectRuns) {
  const auto& [case_idx, cfg] = GetParam();
  const auto& c = Cases()[case_idx];
  const auto sources = WaveSources(c.graph);
  // The per-lane contract holds against both scalar variants (depths are
  // variant-invariant); compare against the idempotent one and spot-check
  // the atomic one on lane 0.
  const auto want = ScalarDepths(c.graph, sources, /*idempotent=*/true);

  BfsBatchOptions opts;
  opts.direction = cfg.direction;
  opts.variant = cfg.variant;
  const auto got = BfsBatch(c.graph, sources, opts);

  ASSERT_EQ(got.depth.size(), sources.size());
  EXPECT_EQ(got.completed_mask, par::LaneMaskOf(sources.size()));
  for (std::size_t l = 0; l < sources.size(); ++l) {
    EXPECT_EQ(got.depth[l], want[l]) << "lane " << l << " source "
                                     << sources[l];
  }

  BfsOptions atomic_opts;
  atomic_opts.compute_preds = false;
  atomic_opts.idempotent = false;
  const auto atomic_ref = Bfs(c.graph, sources[0], atomic_opts);
  EXPECT_EQ(got.depth[0], atomic_ref.depth);
}

TEST_P(BfsBatchParamTest, LaneIterationsMatchScalarRounds) {
  const auto& [case_idx, cfg] = GetParam();
  const auto& c = Cases()[case_idx];
  const auto sources = WaveSources(c.graph);
  BfsBatchOptions opts;
  opts.direction = cfg.direction;
  opts.variant = cfg.variant;
  const auto got = BfsBatch(c.graph, sources, opts);
  BfsOptions sopts;
  sopts.compute_preds = false;
  for (std::size_t l = 0; l < sources.size(); ++l) {
    const auto ref = Bfs(c.graph, sources[l], sopts);
    EXPECT_EQ(got.lane_iterations[l], ref.stats.iterations)
        << "lane " << l;
  }
}

std::vector<std::tuple<std::size_t, BatchConfig>> AllBatchParams() {
  const BatchConfig configs[] = {
      {core::Direction::kPush, BfsBatchVariant::kFused},
      {core::Direction::kPush, BfsBatchVariant::kFiltered},
      {core::Direction::kPull, BfsBatchVariant::kFused},
      {core::Direction::kOptimizing, BfsBatchVariant::kFused},
      {core::Direction::kOptimizing, BfsBatchVariant::kFiltered},
  };
  std::vector<std::tuple<std::size_t, BatchConfig>> params;
  for (std::size_t i = 0; i < Cases().size(); ++i) {
    for (const auto& cfg : configs) params.emplace_back(i, cfg);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Corpus, BfsBatchParamTest,
                         ::testing::ValuesIn(AllBatchParams()),
                         BatchConfigName);

// --- per-lane drop ----------------------------------------------------------

TEST(BfsBatchTest, DroppedLaneLeavesOthersBitIdentical) {
  const auto& c = Cases()[5];  // rmat
  const auto sources = WaveSources(c.graph);
  const auto want = ScalarDepths(c.graph, sources, true);

  const std::uint64_t dropped = (std::uint64_t{1} << 3) |
                                (std::uint64_t{1} << 41);
  std::atomic<int> polls{0};
  BatchLaneControl lanes;
  lanes.keep = [&](std::uint64_t active) {
    return polls.fetch_add(1) >= 2 ? (active & ~dropped) : active;
  };
  BfsBatchOptions opts;
  opts.direction = core::Direction::kOptimizing;
  const auto got = BfsBatch(c.graph, sources, opts, RunControl{}, lanes);

  EXPECT_EQ(got.completed_mask,
            par::LaneMaskOf(sources.size()) & ~dropped);
  for (std::size_t l = 0; l < sources.size(); ++l) {
    if ((got.completed_mask >> l) & 1) {
      EXPECT_EQ(got.depth[l], want[l]) << "lane " << l;
    }
  }
}

TEST(BfsBatchTest, AllLanesDroppedStopsTheWave) {
  const auto& c = Cases()[5];
  const auto sources = WaveSources(c.graph);
  BatchLaneControl lanes;
  lanes.keep = [](std::uint64_t) { return std::uint64_t{0}; };
  const auto got = BfsBatch(c.graph, sources, BfsBatchOptions{},
                            RunControl{}, lanes);
  EXPECT_EQ(got.completed_mask, 0u);
}

TEST(BfsBatchTest, DuplicateSourcesShareDepths) {
  const auto& c = Cases()[0];  // karate
  const std::vector<vid_t> sources = {5, 5, 5, 0};
  const auto got = BfsBatch(c.graph, sources);
  EXPECT_EQ(got.completed_mask, par::LaneMaskOf(4));
  EXPECT_EQ(got.depth[0], got.depth[1]);
  EXPECT_EQ(got.depth[0], got.depth[2]);
  const auto ref = Bfs(c.graph, 5, BfsOptions{}).depth;
  EXPECT_EQ(got.depth[0], ref);
}

TEST(BfsBatchTest, SingleLaneWaveMatchesScalar) {
  const auto& c = Cases()[3];  // grid
  const std::vector<vid_t> sources = {c.source};
  const auto got = BfsBatch(c.graph, sources);
  BfsOptions sopts;
  sopts.compute_preds = false;
  EXPECT_EQ(got.depth[0], Bfs(c.graph, c.source, sopts).depth);
}

TEST(BfsBatchTest, RejectsBadLaneCounts) {
  const auto& c = Cases()[0];
  EXPECT_THROW(BfsBatch(c.graph, std::vector<vid_t>{}), Error);
  EXPECT_THROW(BfsBatch(c.graph, std::vector<vid_t>(65, 0)), Error);
  EXPECT_THROW(BfsBatch(c.graph, std::vector<vid_t>{-1}), Error);
}

TEST(BfsBatchTest, WarmWorkspaceReuseStaysBitIdentical) {
  const auto& c = Cases()[5];
  const auto sources = WaveSources(c.graph);
  const auto want = ScalarDepths(c.graph, sources, true);
  core::Workspace ws;
  RunControl ctl;
  ctl.workspace = &ws;
  BfsBatchOptions opts;
  opts.direction = core::Direction::kOptimizing;
  for (int round = 0; round < 3; ++round) {
    const auto got = BfsBatch(c.graph, sources, opts, ctl);
    for (std::size_t l = 0; l < sources.size(); ++l) {
      ASSERT_EQ(got.depth[l], want[l]) << "round " << round << " lane "
                                       << l;
    }
  }
}

// --- PprBatch ---------------------------------------------------------------

TEST(PprBatchTest, EveryLaneMatchesScalarPpr) {
  const auto& c = Cases()[5];  // rmat
  const auto seeds = test::SpreadSources(c.graph, 16);
  PprBatchOptions opts;
  opts.max_iterations = 30;
  const auto got = PprBatch(c.graph, seeds, opts);
  ASSERT_EQ(got.completed_mask, par::LaneMaskOf(seeds.size()));

  PprOptions sopts;
  sopts.max_iterations = 30;
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    const std::vector<vid_t> seed = {seeds[l]};
    const auto ref = PersonalizedPagerank(c.graph, seed, sopts);
    EXPECT_EQ(got.iterations[l], ref.iterations) << "lane " << l;
    test::ExpectScoresMatch(ref.rank, got.rank[l], "ppr lane");
  }
}

TEST(PprBatchTest, SingleLanePoolIsBitIdentical) {
  // On a one-lane pool every atomic accumulation happens in one fixed
  // order on both sides, so the per-lane contract tightens from
  // tolerance to bitwise equality.
  par::ThreadPool pool(1);
  const auto& c = Cases()[4];  // binary tree
  const auto seeds = test::SpreadSources(c.graph, 8);
  PprBatchOptions opts;
  opts.max_iterations = 25;
  opts.pool = &pool;
  const auto got = PprBatch(c.graph, seeds, opts);

  PprOptions sopts;
  sopts.max_iterations = 25;
  sopts.pool = &pool;
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    const std::vector<vid_t> seed = {seeds[l]};
    const auto ref = PersonalizedPagerank(c.graph, seed, sopts);
    EXPECT_EQ(got.iterations[l], ref.iterations) << "lane " << l;
    EXPECT_EQ(got.rank[l], ref.rank) << "lane " << l
                                     << ": expected bitwise equality";
  }
}

TEST(PprBatchTest, LanesConvergeIndependently) {
  // A disconnected corpus case: seeds in different clusters converge at
  // cluster-local rates; frozen columns must not keep moving.
  const auto& c = Cases()[7];
  const auto seeds = test::SpreadSources(c.graph, 6);
  PprBatchOptions opts;
  opts.max_iterations = 200;
  opts.tolerance = 1e-7;
  const auto got = PprBatch(c.graph, seeds, opts);
  PprOptions sopts;
  sopts.max_iterations = 200;
  sopts.tolerance = 1e-7;
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    const std::vector<vid_t> seed = {seeds[l]};
    const auto ref = PersonalizedPagerank(c.graph, seed, sopts);
    EXPECT_EQ(got.iterations[l], ref.iterations) << "lane " << l;
    test::ExpectScoresMatch(ref.rank, got.rank[l], "ppr lane");
  }
}

TEST(PprBatchTest, DroppedLaneKeepsOthersConverging) {
  const auto& c = Cases()[5];
  const auto seeds = test::SpreadSources(c.graph, 8);
  PprBatchOptions opts;
  opts.max_iterations = 30;

  // Pick a victim lane that provably outlives the drop point (isolated
  // seeds converge in one iteration and would complete before the poll
  // fires — a legitimate, but uninteresting, outcome).
  const auto probe = PprBatch(c.graph, seeds, opts);
  std::size_t victim = seeds.size();
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    if (probe.iterations[l] >= 6) victim = l;
  }
  if (victim == seeds.size()) {
    GTEST_SKIP() << "every seed converges too fast to drop mid-run";
  }
  const std::uint64_t dropped = std::uint64_t{1} << victim;
  std::atomic<int> polls{0};
  BatchLaneControl lanes;
  lanes.keep = [&](std::uint64_t active) {
    return polls.fetch_add(1) >= 3 ? (active & ~dropped) : active;
  };
  const auto got = PprBatch(c.graph, seeds, opts, RunControl{}, lanes);
  EXPECT_EQ(got.completed_mask & dropped, 0u);

  PprOptions sopts;
  sopts.max_iterations = 30;
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    if (((got.completed_mask >> l) & 1) == 0) continue;
    const std::vector<vid_t> seed = {seeds[l]};
    const auto ref = PersonalizedPagerank(c.graph, seed, sopts);
    EXPECT_EQ(got.iterations[l], ref.iterations) << "lane " << l;
    test::ExpectScoresMatch(ref.rank, got.rank[l], "ppr lane");
  }
}

// --- LaneMaskFrontier -------------------------------------------------------

TEST(LaneMaskFrontierTest, EpochInvalidatesInO1) {
  par::LaneMaskFrontier f;
  f.Resize(64);
  EXPECT_EQ(f.Load(7), 0u);
  EXPECT_EQ(f.OrBits(7, 0b101), 0u);
  EXPECT_EQ(f.Load(7), 0b101u);
  EXPECT_EQ(f.OrBits(7, 0b010), 0b101u);
  EXPECT_EQ(f.Load(7), 0b111u);
  f.NewEpoch();
  EXPECT_EQ(f.Load(7), 0u);
  EXPECT_EQ(f.OrBits(7, 0b1000), 0u) << "first touch after epoch bump";
  EXPECT_EQ(f.Load(7), 0b1000u);
}

// Re-OR'ing bits that are already present skips the RMW: it reports the
// current mask and changes nothing.
TEST(LaneMaskFrontierTest, ReOrOfPresentBitsIsANoOp) {
  par::LaneMaskFrontier f;
  f.Resize(8);
  EXPECT_EQ(f.OrBits(3, 0b110), 0u);
  EXPECT_EQ(f.OrBits(3, 0b110), 0b110u);
  EXPECT_EQ(f.OrBits(3, 0b010), 0b110u);
  EXPECT_EQ(f.Load(3), 0b110u);
  EXPECT_EQ(f.OrBits(3, 0b011), 0b110u) << "a new bit still lands";
  EXPECT_EQ(f.Load(3), 0b111u);
  EXPECT_EQ(f.Load(2), 0u);
}

TEST(LaneMaskFrontierTest, ManyWritersOfOneBitTouchFirstOnce) {
  par::ThreadPool pool(4);
  par::LaneMaskFrontier f;
  const std::size_t n = 256;
  f.Resize(n);
  for (int round = 0; round < 20; ++round) {
    f.NewEpoch();
    const std::uint64_t bit = std::uint64_t{1} << (round % 64);
    std::atomic<int> first_touches{0};
    par::ParallelFor(pool, 0, n * 64, [&](std::size_t i) {
      if (f.OrBits(i % n, bit) == 0) {
        first_touches.fetch_add(1, std::memory_order_relaxed);
      }
    });
    ASSERT_EQ(first_touches.load(), static_cast<int>(n));
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_EQ(f.Load(v), bit) << "vertex " << v;
    }
  }
}

TEST(LaneMaskFrontierTest, ConcurrentOrBitsLoseNothing) {
  auto& pool = par::ThreadPool::Global();
  par::LaneMaskFrontier f;
  const std::size_t n = 512;
  f.Resize(n);
  for (int round = 0; round < 50; ++round) {
    f.NewEpoch();
    std::atomic<int> first_touches{0};
    // 64 logical writers per vertex, scattered across the pool: all bits
    // must land, and exactly one writer per vertex sees prev == 0.
    par::ParallelFor(pool, 0, n * 64, [&](std::size_t i) {
      const std::size_t v = i % n;
      const std::uint64_t bit = std::uint64_t{1} << (i / n);
      if (f.OrBits(v, bit) == 0) {
        first_touches.fetch_add(1, std::memory_order_relaxed);
      }
    });
    ASSERT_EQ(first_touches.load(), static_cast<int>(n));
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_EQ(f.Load(v), ~std::uint64_t{0}) << "vertex " << v;
    }
  }
}

}  // namespace
}  // namespace gunrock
