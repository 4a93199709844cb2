// Graph layer: CSR builder invariants, reverse graphs, Matrix Market
// round-trips, generator determinism and topology-class properties.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/market.hpp"
#include "graph/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace gunrock::graph {
namespace {

par::ThreadPool& Pool() { return par::ThreadPool::Global(); }

TEST(CsrBuilderTest, SortsAndDeduplicates) {
  Coo coo;
  coo.num_vertices = 4;
  coo.PushEdge(2, 1);
  coo.PushEdge(0, 3);
  coo.PushEdge(0, 1);
  coo.PushEdge(0, 3);  // duplicate
  coo.PushEdge(3, 3);  // self loop
  const auto g = BuildCsr(coo);
  g.Validate();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);  // dup + self loop removed
  EXPECT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(0)[0], 1);
  EXPECT_EQ(g.neighbors(0)[1], 3);
  EXPECT_EQ(g.neighbors(2)[0], 1);
}

TEST(CsrBuilderTest, KeepsSelfLoopsAndDuplicatesWhenAsked) {
  Coo coo;
  coo.num_vertices = 3;
  coo.PushEdge(1, 1);
  coo.PushEdge(0, 2);
  coo.PushEdge(0, 2);
  BuildOptions opts;
  opts.remove_self_loops = false;
  opts.remove_duplicates = false;
  const auto g = BuildCsr(coo, opts);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(CsrBuilderTest, SymmetrizeMakesSymmetric) {
  Coo coo;
  coo.num_vertices = 5;
  coo.PushEdge(0, 1);
  coo.PushEdge(1, 2);
  coo.PushEdge(4, 0);
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(coo, opts);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_TRUE(g.IsSymmetric(Pool()));
  EXPECT_TRUE(g.symmetric());
  EXPECT_FALSE(BuildCsr(coo).symmetric());
}

TEST(CsrBuilderTest, FirstDuplicateWeightWinsDeterministically) {
  Coo coo;
  coo.num_vertices = 2;
  coo.PushEdge(0, 1, 5.0f);
  coo.PushEdge(0, 1, 9.0f);
  const auto a = BuildCsr(coo);
  const auto b = BuildCsr(coo);
  ASSERT_EQ(a.num_edges(), 1);
  EXPECT_EQ(a.edge_weight(0), 5.0f);
  EXPECT_EQ(b.edge_weight(0), 5.0f);
}

TEST(CsrBuilderTest, RejectsOutOfRangeEndpoints) {
  Coo coo;
  coo.num_vertices = 2;
  coo.PushEdge(0, 5);
  EXPECT_THROW(BuildCsr(coo), Error);
}

TEST(CsrBuilderTest, WeightsFollowEdgesThroughSymmetrization) {
  Coo coo;
  coo.num_vertices = 3;
  coo.PushEdge(0, 1, 3.5f);
  coo.PushEdge(1, 2, 1.25f);
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(coo, opts);
  ASSERT_TRUE(g.has_weights());
  // Both directions carry the original weight.
  for (eid_t e = g.row_begin(1); e < g.row_end(1); ++e) {
    if (g.edge_dest(e) == 0) {
      EXPECT_EQ(g.edge_weight(e), 3.5f);
    }
    if (g.edge_dest(e) == 2) {
      EXPECT_EQ(g.edge_weight(e), 1.25f);
    }
  }
}

TEST(CsrTest, EdgeSourcesInvertRowOffsets) {
  RmatParams p;
  p.scale = 10;
  const auto g = BuildCsr(GenerateRmat(p, Pool()));
  const auto srcs = g.edge_sources(Pool());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (eid_t e = g.row_begin(v); e < g.row_end(v); ++e) {
      ASSERT_EQ(srcs[static_cast<std::size_t>(e)], v);
    }
  }
}

TEST(CsrTest, ReverseCsrTransposes) {
  Coo coo;
  coo.num_vertices = 4;
  coo.PushEdge(0, 1, 1.0f);
  coo.PushEdge(0, 2, 2.0f);
  coo.PushEdge(3, 1, 3.0f);
  const auto g = BuildCsr(coo);
  const auto rg = ReverseCsr(g, Pool());
  rg.Validate();
  EXPECT_FALSE(rg.symmetric());
  EXPECT_EQ(rg.num_edges(), g.num_edges());
  EXPECT_EQ(rg.degree(1), 2);  // in-edges from 0 and 3
  EXPECT_EQ(rg.degree(0), 0);
  // Weight follows the edge.
  for (eid_t e = rg.row_begin(1); e < rg.row_end(1); ++e) {
    if (rg.edge_dest(e) == 0) {
      EXPECT_EQ(rg.edge_weight(e), 1.0f);
    }
    if (rg.edge_dest(e) == 3) {
      EXPECT_EQ(rg.edge_weight(e), 3.0f);
    }
  }
}

TEST(CsrTest, ReverseOfSymmetricEqualsItself) {
  RmatParams p;
  p.scale = 9;
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(GenerateRmat(p, Pool()), opts);
  const auto rg = ReverseCsr(g, Pool());
  EXPECT_TRUE(rg.symmetric());
  ASSERT_EQ(rg.num_edges(), g.num_edges());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.degree(v), rg.degree(v));
  }
}

TEST(CsrTest, RoundTripThroughCoo) {
  RmatParams p;
  p.scale = 8;
  const auto g = BuildCsr(GenerateRmat(p, Pool()));
  const auto coo = CsrToCoo(g, Pool());
  const auto g2 = BuildCsr(coo);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.row_offsets()[g.num_vertices()],
            g.row_offsets()[g.num_vertices()]);
  for (std::size_t i = 0; i < g.col_indices().size(); ++i) {
    ASSERT_EQ(g2.col_indices()[i], g.col_indices()[i]);
  }
}

TEST(MarketIoTest, RoundTripsWeightedGraph) {
  Coo coo;
  coo.num_vertices = 5;
  coo.PushEdge(0, 1, 2.5f);
  coo.PushEdge(2, 4, 7.0f);
  coo.PushEdge(3, 0, 1.0f);
  std::stringstream ss;
  WriteMarket(ss, coo);
  const auto back = ReadMarket(ss);
  EXPECT_EQ(back.num_vertices, 5);
  ASSERT_EQ(back.src.size(), 3u);
  EXPECT_EQ(back.src[1], 2);
  EXPECT_EQ(back.dst[1], 4);
  EXPECT_EQ(back.weight[1], 7.0f);
}

TEST(MarketIoTest, ReadsPatternSymmetric) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const auto coo = ReadMarket(ss);
  EXPECT_EQ(coo.num_vertices, 3);
  // Off-diagonal expanded both ways; diagonal kept once.
  EXPECT_EQ(coo.src.size(), 3u);
  EXPECT_TRUE(coo.weight.empty());
}

TEST(MarketIoTest, RejectsMalformedInput) {
  std::stringstream no_banner("1 1 0\n");
  EXPECT_THROW(ReadMarket(no_banner), Error);
  std::stringstream bad_field(
      "%%MatrixMarket matrix coordinate complex general\n2 2 0\n");
  EXPECT_THROW(ReadMarket(bad_field), Error);
  std::stringstream truncated(
      "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n");
  EXPECT_THROW(ReadMarket(truncated), Error);
  std::stringstream out_of_range(
      "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n");
  EXPECT_THROW(ReadMarket(out_of_range), Error);
}

TEST(GeneratorTest, RmatIsDeterministicAndSized) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const auto a = GenerateRmat(p, Pool());
  const auto b = GenerateRmat(p, Pool());
  EXPECT_EQ(a.num_vertices, 1 << 12);
  EXPECT_EQ(a.src.size(), static_cast<std::size_t>(8) << 12);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  p.seed = 42;
  const auto c = GenerateRmat(p, Pool());
  EXPECT_NE(a.src, c.src);
}

TEST(GeneratorTest, RmatIsScaleFree) {
  RmatParams p;
  p.scale = 14;
  p.edge_factor = 16;
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(GenerateRmat(p, Pool()), opts);
  const auto stats = ComputeDegreeStats(g, Pool());
  EXPECT_TRUE(IsScaleFreeLike(stats));
  EXPECT_TRUE(ComputeScaleFreeHint(g, Pool()));
  // The paper's characterization: most vertices have degree < 64.
  EXPECT_GT(stats.frac_degree_below_64, 0.6);
  EXPECT_GT(stats.max_degree, 32 * static_cast<eid_t>(stats.mean_degree));
}

TEST(GeneratorTest, RggIsMeshLike) {
  RggParams p;
  p.scale = 13;
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(GenerateRgg(p, Pool()), opts);
  const auto stats = ComputeDegreeStats(g, Pool());
  EXPECT_FALSE(IsScaleFreeLike(stats));
  EXPECT_FALSE(ComputeScaleFreeHint(g, Pool()));
  // Target mean degree ~15 like rgg_n_2_24.
  EXPECT_GT(stats.mean_degree, 8.0);
  EXPECT_LT(stats.mean_degree, 24.0);
}

TEST(GeneratorTest, RoadIsSparseWithLargeDiameter) {
  RoadParams p;
  p.width = 64;
  p.height = 64;
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(GenerateRoad(p, Pool()), opts);
  const auto stats = ComputeDegreeStats(g, Pool());
  EXPECT_LT(stats.mean_degree, 6.0);
  EXPECT_TRUE(g.has_weights());
  EXPECT_GT(PseudoDiameter(g), 32);
}

TEST(GeneratorTest, BipartiteRespectsSides) {
  BipartiteParams p;
  p.num_users = 100;
  p.num_items = 50;
  p.edges_per_user = 5;
  const auto coo = GenerateBipartite(p, Pool());
  EXPECT_EQ(coo.num_vertices, 150);
  EXPECT_EQ(coo.src.size(), 500u);
  for (std::size_t i = 0; i < coo.src.size(); ++i) {
    EXPECT_LT(coo.src[i], 100);
    EXPECT_GE(coo.dst[i], 100);
    EXPECT_LT(coo.dst[i], 150);
  }
}

TEST(GeneratorTest, PlantedPartitionHasExactComponents) {
  PlantedPartitionParams p;
  p.num_clusters = 5;
  p.cluster_size = 100;
  p.inter_edges = 0;
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(GeneratePlantedPartition(p, Pool()), opts);
  // Every intra edge stays within its block of 100 ids.
  const auto srcs = g.edge_sources(Pool());
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(srcs[static_cast<std::size_t>(e)] / 100,
              g.col_indices()[e] / 100);
  }
}

TEST(GeneratorTest, WeightsAreSymmetricAndBounded) {
  RmatParams p;
  p.scale = 10;
  auto coo = GenerateRmat(p, Pool());
  AttachRandomWeights(coo, 1, 64);
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(coo, opts);
  const auto srcs = g.edge_sources(Pool());
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const weight_t w = g.edge_weight(e);
    ASSERT_GE(w, 1.0f);
    ASSERT_LE(w, 64.0f);
    // Reverse edge carries the same weight.
    const vid_t u = srcs[static_cast<std::size_t>(e)];
    const vid_t v = g.col_indices()[e];
    bool found = false;
    for (eid_t r = g.row_begin(v); r < g.row_end(v); ++r) {
      if (g.edge_dest(r) == u && g.edge_weight(r) == w) {
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
  }
}

TEST(StatsTest, DiameterOfPathAndStar) {
  BuildOptions opts;
  opts.symmetrize = true;
  EXPECT_EQ(PseudoDiameter(BuildCsr(MakePath(100), opts)), 99);
  EXPECT_EQ(PseudoDiameter(BuildCsr(MakeStar(50), opts)), 2);
  EXPECT_EQ(PseudoDiameter(BuildCsr(MakeCycle(100), opts)), 50);
}

TEST(StatsTest, DegreeHistogramBucketsPowersOfTwo) {
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(MakeStar(65), opts);  // hub degree 64, leaves 1
  const auto hist = DegreeHistogram(g, Pool());
  EXPECT_EQ(hist[1], 64);  // degree 1 -> bucket [1,2)
  EXPECT_EQ(hist[7], 1);   // degree 64 -> bucket [64,128)
}

TEST(ToyGraphTest, KarateShape) {
  const auto coo = MakeKarate();
  EXPECT_EQ(coo.num_vertices, 34);
  EXPECT_EQ(coo.src.size(), 78u);
  BuildOptions opts;
  opts.symmetrize = true;
  const auto g = BuildCsr(coo, opts);
  EXPECT_EQ(g.num_edges(), 156);
  EXPECT_EQ(g.degree(33), 17);  // instructor
  EXPECT_EQ(g.degree(0), 16);   // president
}

}  // namespace
}  // namespace gunrock::graph
