#include "graph/csr.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>

#include "parallel/atomics.hpp"
#include "parallel/compact.hpp"
#include "parallel/for_each.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "util/error.hpp"

namespace gunrock::graph {

namespace {

std::uint64_t PackEdge(vid_t src, vid_t dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

}  // namespace

struct CsrBuilderAccess {
  static Csr Make(vid_t n, std::vector<eid_t> offsets,
                  std::vector<vid_t> cols, std::vector<weight_t> weights,
                  bool symmetric) {
    Csr g;
    g.num_vertices_ = n;
    g.symmetric_ = symmetric;
    g.row_offsets_ = std::move(offsets);
    g.col_indices_ = std::move(cols);
    g.weights_ = std::move(weights);
    return g;
  }
};

Csr BuildCsr(const Coo& coo, const BuildOptions& opts,
             par::ThreadPool& pool) {
  const vid_t n = coo.num_vertices;
  GR_CHECK(n >= 0, "negative vertex count");
  const std::size_t m_in = coo.src.size();
  GR_CHECK(coo.dst.size() == m_in, "src/dst size mismatch");
  GR_CHECK(coo.weight.empty() || coo.weight.size() == m_in,
           "weight size mismatch");
  const bool weighted = coo.has_weights();

  // Phase 1: pack (src, dst) into sortable 64-bit keys, dropping self loops
  // and appending reversed edges if symmetrizing. Two deterministic block
  // passes (count, then place) keep the pre-sort edge order a pure function
  // of the input, so "first duplicate wins" is reproducible run to run.
  const std::size_t nblocks =
      par::DefaultBlockCount(std::max<std::size_t>(m_in, 1),
                             pool.num_threads());
  std::vector<std::size_t> block_out(nblocks + 1, 0);
  const auto emitted = [&](std::size_t i) -> std::size_t {
    const vid_t u = coo.src[i], v = coo.dst[i];
    GR_CHECK(u >= 0 && u < n && v >= 0 && v < n,
             "edge endpoint out of range");
    if (opts.remove_self_loops && u == v) return 0;
    return (opts.symmetrize && u != v) ? 2 : 1;
  };
  par::FixedBlocks(pool, m_in, nblocks,
                   [&](std::size_t b, std::size_t lo, std::size_t hi) {
                     std::size_t c = 0;
                     for (std::size_t i = lo; i < hi; ++i) c += emitted(i);
                     block_out[b + 1] = c;
                   });
  for (std::size_t b = 0; b < nblocks; ++b) block_out[b + 1] += block_out[b];
  std::vector<std::uint64_t> keys(block_out[nblocks]);
  std::vector<weight_t> vals(weighted ? keys.size() : 0);
  par::FixedBlocks(
      pool, m_in, nblocks,
      [&](std::size_t b, std::size_t lo, std::size_t hi) {
        std::size_t at = block_out[b];
        for (std::size_t i = lo; i < hi; ++i) {
          const vid_t u = coo.src[i], v = coo.dst[i];
          if (opts.remove_self_loops && u == v) continue;
          keys[at] = PackEdge(u, v);
          if (weighted) vals[at] = coo.weight[i];
          ++at;
          if (opts.symmetrize && u != v) {
            keys[at] = PackEdge(v, u);
            if (weighted) vals[at] = coo.weight[i];
            ++at;
          }
        }
      });

  // Phase 2: sort edges by (src, dst).
  if (weighted) {
    par::RadixSortPairs<std::uint64_t, weight_t>(pool, keys, vals);
  } else {
    par::RadixSortKeys<std::uint64_t>(pool, keys);
  }

  // Phase 3: optionally drop duplicate edges (first weight wins — the sort
  // is stable, so "first" means first in pre-sort order per (u,v) group).
  if (opts.remove_duplicates && !keys.empty()) {
    std::vector<std::uint64_t> dk(keys.size());
    std::vector<weight_t> dv(weighted ? keys.size() : 0);
    auto keep = [&](std::size_t i) {
      return i == 0 || keys[i] != keys[i - 1];
    };
    std::size_t kept;
    if (weighted) {
      // Compact keys and weights with the same predicate/offsets.
      kept = par::GenerateIf(
          pool, keys.size(), std::span<std::uint64_t>(dk), keep,
          [&](std::size_t i) { return keys[i]; });
      par::GenerateIf(pool, keys.size(), std::span<weight_t>(dv), keep,
                      [&](std::size_t i) { return vals[i]; });
    } else {
      kept = par::GenerateIf(pool, keys.size(), std::span<std::uint64_t>(dk),
                             keep,
                             [&](std::size_t i) { return keys[i]; });
    }
    dk.resize(kept);
    keys.swap(dk);
    if (weighted) {
      dv.resize(kept);
      vals.swap(dv);
    }
  }

  // Phase 4: offsets by atomic degree count + scan; columns by unpack.
  const std::size_t m = keys.size();
  std::vector<eid_t> degree(static_cast<std::size_t>(n) + 1, 0);
  par::ParallelFor(pool, 0, m, [&](std::size_t i) {
    par::AtomicAdd(&degree[keys[i] >> 32], eid_t{1});
  });
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1);
  par::ExclusiveScan<eid_t>(pool, degree, offsets);
  offsets[n] = static_cast<eid_t>(m);

  std::vector<vid_t> cols(m);
  par::ParallelFor(pool, 0, m, [&](std::size_t i) {
    cols[i] = static_cast<vid_t>(keys[i] & 0xffffffffu);
  });

  Csr g = CsrBuilderAccess::Make(n, std::move(offsets), std::move(cols),
                                 weighted ? std::move(vals)
                                          : std::vector<weight_t>{},
                                 opts.symmetrize);
  return g;
}

std::span<const vid_t> Csr::edge_sources(par::ThreadPool& pool) const {
  if (edge_src_.empty() && num_edges() > 0) {
    std::vector<vid_t> src(static_cast<std::size_t>(num_edges()));
    par::ParallelFor(pool, 0, static_cast<std::size_t>(num_vertices_),
                     [&](std::size_t v) {
                       for (eid_t e = row_begin(static_cast<vid_t>(v));
                            e < row_end(static_cast<vid_t>(v)); ++e) {
                         src[static_cast<std::size_t>(e)] =
                             static_cast<vid_t>(v);
                       }
                     });
    edge_src_ = std::move(src);
  }
  return edge_src_;
}

bool Csr::IsSymmetric(par::ThreadPool& pool) const {
  const auto srcs = edge_sources(pool);
  return par::TransformReduce(
      pool, static_cast<std::size_t>(num_edges()), true,
      [](bool a, bool b) { return a && b; },
      [&](std::size_t e) {
        const vid_t u = srcs[e];
        const vid_t v = col_indices_[e];
        const auto nb = neighbors(v);
        return std::binary_search(nb.begin(), nb.end(), u);
      });
}

void Csr::Validate() const {
  GR_CHECK(row_offsets_.size() ==
               static_cast<std::size_t>(num_vertices_) + 1,
           "row_offsets size");
  GR_CHECK(row_offsets_.front() == 0, "row_offsets[0] != 0");
  GR_CHECK(row_offsets_.back() == num_edges(), "row_offsets[n] != m");
  for (std::size_t v = 0; v + 1 < row_offsets_.size(); ++v) {
    GR_CHECK(row_offsets_[v] <= row_offsets_[v + 1],
             "row offsets not monotone");
  }
  for (const vid_t c : col_indices_) {
    GR_CHECK(c >= 0 && c < num_vertices_, "column index out of range");
  }
  GR_CHECK(weights_.empty() || weights_.size() == col_indices_.size(),
           "weights size");
}

Csr ReverseCsr(const Csr& g, par::ThreadPool& pool) {
  const vid_t n = g.num_vertices();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  std::vector<eid_t> in_degree(static_cast<std::size_t>(n) + 1, 0);
  par::ParallelFor(pool, 0, m, [&](std::size_t e) {
    par::AtomicAdd(&in_degree[g.col_indices()[e]], eid_t{1});
  });
  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1);
  par::ExclusiveScan<eid_t>(pool, in_degree, offsets);
  offsets[n] = static_cast<eid_t>(m);

  std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<vid_t> cols(m);
  std::vector<weight_t> weights(g.has_weights() ? m : 0);
  const auto srcs = g.edge_sources(pool);
  par::ParallelFor(pool, 0, m, [&](std::size_t e) {
    const vid_t d = g.col_indices()[e];
    const eid_t slot = par::AtomicAdd(&cursor[d], eid_t{1});
    cols[static_cast<std::size_t>(slot)] = srcs[e];
    if (g.has_weights()) {
      weights[static_cast<std::size_t>(slot)] = g.weights()[e];
    }
  });
  // Neighbor lists must be sorted for binary-search lookups.
  par::ParallelFor(pool, 0, static_cast<std::size_t>(n), [&](std::size_t v) {
    const auto b = static_cast<std::size_t>(offsets[v]);
    const auto e = static_cast<std::size_t>(offsets[v + 1]);
    if (weights.empty()) {
      std::sort(cols.begin() + b, cols.begin() + e);
    } else {
      // Sort columns and weights together.
      std::vector<std::pair<vid_t, weight_t>> tmp;
      tmp.reserve(e - b);
      for (std::size_t i = b; i < e; ++i) tmp.emplace_back(cols[i], weights[i]);
      std::sort(tmp.begin(), tmp.end(),
                [](auto& a, auto& c) { return a.first < c.first; });
      for (std::size_t i = b; i < e; ++i) {
        cols[i] = tmp[i - b].first;
        weights[i] = tmp[i - b].second;
      }
    }
  });
  return CsrBuilderAccess::Make(n, std::move(offsets), std::move(cols),
                                std::move(weights), g.symmetric());
}

Coo CsrToCoo(const Csr& g, par::ThreadPool& pool) {
  Coo coo;
  coo.num_vertices = g.num_vertices();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  coo.src.resize(m);
  coo.dst.resize(m);
  if (g.has_weights()) coo.weight.resize(m);
  const auto srcs = g.edge_sources(pool);
  par::ParallelFor(pool, 0, m, [&](std::size_t e) {
    coo.src[e] = srcs[e];
    coo.dst[e] = g.col_indices()[e];
    if (g.has_weights()) coo.weight[e] = g.weights()[e];
  });
  return coo;
}

}  // namespace gunrock::graph
