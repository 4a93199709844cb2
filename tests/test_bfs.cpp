// BFS vs the serial oracle across topologies × strategies × modes ×
// directions, plus structural properties of the BFS tree.
#include <gtest/gtest.h>

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
          .Star(100, /*source=*/3)
          .Grid(37, 23, /*source=*/11)
          .BinaryTree(10)
          .Rmat(12, 8, /*source=*/5)
          .Rgg(12, /*source=*/17)
          .Disconnected(4, 64, /*source=*/1)
          .Build());
  return *cases;
}

struct Config {
  core::LoadBalance lb;
  bool idempotent;
  core::Direction direction;
};

std::string ConfigName(const ::testing::TestParamInfo<
                       std::tuple<std::size_t, Config>>& info) {
  const auto& [case_idx, cfg] = info.param;
  std::string name = Cases()[case_idx].name;
  name += "_";
  name += ToString(cfg.lb);
  name += cfg.idempotent ? "_idem" : "_atomic";
  name += "_";
  name += ToString(cfg.direction);
  return test::SafeTestName(std::move(name));
}

class BfsParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Config>> {};

// An oversubscribed 4-lane pool makes the push claims race even on a
// 1-core runner.
par::ThreadPool& FourLanes() {
  static par::ThreadPool pool(4);
  return pool;
}

TEST_P(BfsParamTest, MatchesSerialDepths) {
  const auto& [case_idx, cfg] = GetParam();
  const auto& c = Cases()[case_idx];
  const auto expected = serial::Bfs(c.graph, c.source);

  for (par::ThreadPool* pool : {static_cast<par::ThreadPool*>(nullptr),
                                &FourLanes()}) {
    BfsOptions opts;
    opts.pool = pool;
    opts.load_balance = cfg.lb;
    opts.idempotent = cfg.idempotent;
    opts.direction = cfg.direction;
    const auto got = Bfs(c.graph, c.source, opts);

    test::ExpectSameLabels(expected.depth, got.depth);
  }
}

TEST_P(BfsParamTest, PredecessorsFormValidBfsTree) {
  const auto& [case_idx, cfg] = GetParam();
  const auto& c = Cases()[case_idx];
  for (par::ThreadPool* pool : {static_cast<par::ThreadPool*>(nullptr),
                                &FourLanes()}) {
    BfsOptions opts;
    opts.pool = pool;
    opts.load_balance = cfg.lb;
    opts.idempotent = cfg.idempotent;
    opts.direction = cfg.direction;
    const auto got = Bfs(c.graph, c.source, opts);

    test::ExpectValidBfsTree(c.graph, c.source, got);
  }
}

// The parent of every reached vertex is its smallest-id in-neighbour one
// level up, whatever the schedule.
TEST_P(BfsParamTest, PredecessorIsSmallestIdParent) {
  static par::ThreadPool one_lane(1);
  const auto& [case_idx, cfg] = GetParam();
  const auto& c = Cases()[case_idx];
  for (par::ThreadPool* pool : {&one_lane, &FourLanes()}) {
    BfsOptions opts;
    opts.pool = pool;
    opts.load_balance = cfg.lb;
    opts.idempotent = cfg.idempotent;
    opts.direction = cfg.direction;
    const auto got = Bfs(c.graph, c.source, opts);

    std::vector<vid_t> want(got.depth.size(), kInvalidVid);
    for (vid_t u = 0; u < c.graph.num_vertices(); ++u) {
      if (got.depth[u] < 0) continue;
      for (eid_t e = c.graph.row_begin(u); e < c.graph.row_end(u); ++e) {
        const vid_t v = c.graph.edge_dest(e);
        // Rows are visited in id order, so the first hit is the smallest.
        if (got.depth[v] == got.depth[u] + 1 && want[v] == kInvalidVid) {
          want[v] = u;
        }
      }
    }
    EXPECT_EQ(got.pred, want) << pool->num_threads() << " lanes";
  }
}

std::vector<std::tuple<std::size_t, Config>> AllParams() {
  const Config configs[] = {
      {core::LoadBalance::kThreadMapped, false, core::Direction::kPush},
      {core::LoadBalance::kThreadMapped, true, core::Direction::kPush},
      {core::LoadBalance::kTwc, false, core::Direction::kPush},
      {core::LoadBalance::kTwc, true, core::Direction::kPush},
      {core::LoadBalance::kEqualWork, false, core::Direction::kPush},
      {core::LoadBalance::kEqualWork, true, core::Direction::kPush},
      {core::LoadBalance::kAuto, true, core::Direction::kPush},
      {core::LoadBalance::kAuto, true, core::Direction::kPull},
      {core::LoadBalance::kAuto, false, core::Direction::kPull},
      {core::LoadBalance::kAuto, true, core::Direction::kOptimizing},
      {core::LoadBalance::kAuto, false, core::Direction::kOptimizing},
      {core::LoadBalance::kEqualWork, true, core::Direction::kOptimizing},
  };
  std::vector<std::tuple<std::size_t, Config>> params;
  for (std::size_t i = 0; i < Cases().size(); ++i) {
    for (const auto& cfg : configs) params.emplace_back(i, cfg);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, BfsParamTest,
                         ::testing::ValuesIn(AllParams()), ConfigName);

TEST(BfsTest, RejectsBadSource) {
  const auto g = test::Undirected(graph::MakePath(4));
  EXPECT_THROW(Bfs(g, -1), Error);
  EXPECT_THROW(Bfs(g, 4), Error);
}

TEST(BfsTest, SingleVertexGraph) {
  graph::Coo coo;
  coo.num_vertices = 1;
  const auto g = graph::BuildCsr(coo);
  const auto r = Bfs(g, 0);
  EXPECT_EQ(r.depth[0], 0);
  // One advance runs on the singleton frontier and produces nothing.
  EXPECT_EQ(r.stats.iterations, 1);
  EXPECT_EQ(r.stats.edges_visited, 0);
}

TEST(BfsTest, CountsEdgesAndTime) {
  graph::RmatParams p;
  p.scale = 10;
  const auto g =
      test::Undirected(GenerateRmat(p, par::ThreadPool::Global()));
  BfsOptions opts;
  opts.direction = core::Direction::kPush;
  const auto r = Bfs(g, 0, opts);
  EXPECT_GT(r.stats.edges_visited, 0);
  EXPECT_GT(r.stats.iterations, 0);
  EXPECT_GE(r.stats.lane_efficiency, 0.0);
  EXPECT_LE(r.stats.lane_efficiency, 1.0);
}

TEST(BfsTest, RecordsPerIterationWhenAsked) {
  const auto g = test::Undirected(graph::MakeBinaryTree(8));
  BfsOptions opts;
  opts.collect_records = true;
  opts.direction = core::Direction::kPush;
  const auto r = Bfs(g, 0, opts);
  EXPECT_EQ(static_cast<int>(r.stats.records.size()),
            r.stats.iterations);
}

}  // namespace
}  // namespace gunrock
