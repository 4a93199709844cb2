// Compressed sparse row graph storage (paper Section 3).
//
// "In Gunrock, we use a compressed sparse row (CSR) sparse matrix for
// vertex-centric operations by default and allow users to choose an
// edge-list-only representation for edge-centric operations." Both live
// here: the CSR arrays plus an optional materialized edge list (src per
// edge) for edge-frontier primitives such as connected components.
#pragma once

#include <span>
#include <vector>

#include "graph/coo.hpp"
#include "parallel/thread_pool.hpp"
#include "util/types.hpp"

namespace gunrock::graph {

class Csr {
 public:
  vid_t num_vertices() const noexcept { return num_vertices_; }
  eid_t num_edges() const noexcept {
    return static_cast<eid_t>(col_indices_.size());
  }
  bool has_weights() const noexcept { return !weights_.empty(); }

  eid_t row_begin(vid_t v) const { return row_offsets_[v]; }
  eid_t row_end(vid_t v) const { return row_offsets_[v + 1]; }
  eid_t degree(vid_t v) const { return row_end(v) - row_begin(v); }
  vid_t edge_dest(eid_t e) const { return col_indices_[e]; }
  weight_t edge_weight(eid_t e) const { return weights_[e]; }

  std::span<const eid_t> row_offsets() const { return row_offsets_; }
  std::span<const vid_t> col_indices() const { return col_indices_; }
  std::span<const weight_t> weights() const { return weights_; }

  std::span<const vid_t> neighbors(vid_t v) const {
    return {col_indices_.data() + row_begin(v),
            static_cast<std::size_t>(degree(v))};
  }
  std::span<const weight_t> neighbor_weights(vid_t v) const {
    return {weights_.data() + row_begin(v),
            static_cast<std::size_t>(degree(v))};
  }

  /// Source vertex of every edge slot, materialized on demand (the
  /// "edge-list-only representation for edge-centric operations").
  /// Thread-compatible: call once before sharing the graph across threads.
  std::span<const vid_t> edge_sources(par::ThreadPool& pool) const;

  /// True when every (u,v) has a matching (v,u) with equal weight slot
  /// count (the datasets in the paper are all converted to undirected).
  bool IsSymmetric(par::ThreadPool& pool) const;

  /// True when symmetric by construction (BuildCsr with `symmetrize`, or
  /// the reverse of such a graph): every row is also the in-edge list.
  bool symmetric() const noexcept { return symmetric_; }

  /// Throws gunrock::Error if structural invariants are violated
  /// (monotone offsets, column indices in range, weight array size).
  void Validate() const;

  /// Average out-degree.
  double average_degree() const {
    return num_vertices_ == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_vertices_;
  }

 private:
  friend struct CsrBuilderAccess;
  vid_t num_vertices_ = 0;
  bool symmetric_ = false;
  std::vector<eid_t> row_offsets_;
  std::vector<vid_t> col_indices_;
  std::vector<weight_t> weights_;
  mutable std::vector<vid_t> edge_src_;  // lazily materialized
};

struct BuildOptions {
  /// Add the reverse of every edge (paper: "We converted all datasets to
  /// undirected graphs").
  bool symmetrize = false;
  bool remove_self_loops = true;
  /// Collapse parallel edges, keeping the first weight in sort order.
  bool remove_duplicates = true;
};

/// Builds a CSR from a COO edge list: sort by (src, dst) with a parallel
/// radix sort on packed 64-bit keys, optional symmetrization/cleanup, then
/// offset construction.
Csr BuildCsr(const Coo& coo, const BuildOptions& opts,
             par::ThreadPool& pool);

inline Csr BuildCsr(const Coo& coo, const BuildOptions& opts = {}) {
  return BuildCsr(coo, opts, par::ThreadPool::Global());
}

/// Transposed graph (CSC of the original). For symmetric graphs this equals
/// the input; primitives on directed graphs (pull traversal, HITS, SALSA)
/// need it explicitly.
Csr ReverseCsr(const Csr& g, par::ThreadPool& pool);

/// Converts back to COO (used by tests and by Matrix Market output).
Coo CsrToCoo(const Csr& g, par::ThreadPool& pool);

}  // namespace gunrock::graph
