#include "dynamic/incremental.hpp"

#include <algorithm>
#include <utility>

#include "core/advance.hpp"
#include "parallel/atomics.hpp"
#include "parallel/union_find.hpp"
#include "util/error.hpp"

namespace gunrock::dynamic {

namespace {

/// Relax every edge out of the frontier, CAS-min on the depth label with
/// -1 standing in for +inf. The same functor serves the base layer (with
/// the snapshot's tombstone list) and the delta layer (tombs empty).
struct BfsRepairProblem {
  std::int32_t* depth = nullptr;
  const eid_t* tombs = nullptr;
  std::size_t num_tombs = 0;
};

struct BfsRepairFunctor {
  static bool CondEdge(vid_t u, vid_t v, eid_t e, BfsRepairProblem& p) {
    if (p.num_tombs != 0 && IsTombstoned({p.tombs, p.num_tombs}, e)) {
      return false;
    }
    const std::int32_t du = par::AtomicLoad(&p.depth[u]);
    if (du < 0) return false;
    const std::int32_t cand = du + 1;
    std::int32_t dv = par::AtomicLoad(&p.depth[v]);
    while (dv < 0 || cand < dv) {
      if (par::AtomicCas(&p.depth[v], dv, cand)) return true;
      dv = par::AtomicLoad(&p.depth[v]);
    }
    return false;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, BfsRepairProblem&) {}
};

struct SsspRepairProblem {
  weight_t* dist = nullptr;
  const weight_t* weights = nullptr;
  const eid_t* tombs = nullptr;
  std::size_t num_tombs = 0;
};

struct SsspRepairFunctor {
  static bool CondEdge(vid_t u, vid_t v, eid_t e, SsspRepairProblem& p) {
    if (p.num_tombs != 0 && IsTombstoned({p.tombs, p.num_tombs}, e)) {
      return false;
    }
    // +inf propagates: an unreached u yields cand == +inf, never < dv.
    const weight_t cand = par::AtomicLoad(&p.dist[u]) + p.weights[e];
    weight_t dv = par::AtomicLoad(&p.dist[v]);
    while (cand < dv) {
      if (par::AtomicCas(&p.dist[v], dv, cand)) return true;
      dv = par::AtomicLoad(&p.dist[v]);
    }
    return false;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, SsspRepairProblem&) {}
};

void SortUnique(std::vector<vid_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Runs a repair wave to fixpoint: each iteration advances the frontier
/// over the snapshot's base layer (skipping tombstones) and delta layer,
/// collecting every improved vertex into the next frontier. Labels only
/// decrease and are bounded below, so the wave terminates; work is
/// proportional to the affected region, not the graph.
template <typename Functor, typename Problem>
void RepairWave(par::ThreadPool& pool, const Snapshot& snap,
                Problem& base_prob, Problem& delta_prob,
                std::vector<vid_t>* frontier, core::Workspace* ws) {
  core::AdvanceConfig cfg;
  cfg.model_efficiency = false;
  cfg.workspace = ws;
  std::vector<vid_t> next;
  while (!frontier->empty()) {
    next.clear();
    core::AdvancePush<Functor>(pool, snap.base(),
                               std::span<const vid_t>(*frontier), &next,
                               base_prob, cfg);
    if (snap.delta().num_edges() != 0) {
      core::AdvancePush<Functor>(pool, snap.delta(),
                                 std::span<const vid_t>(*frontier), &next,
                                 delta_prob, cfg);
    }
    SortUnique(&next);
    frontier->swap(next);
  }
}

}  // namespace

IncrementalBfs::IncrementalBfs(std::shared_ptr<const Snapshot> snapshot,
                               vid_t source, BfsOptions opts)
    : opts_(std::move(opts)), source_(source),
      snapshot_(std::move(snapshot)) {
  GR_CHECK(snapshot_ != nullptr, "IncrementalBfs needs a snapshot");
  opts_.compute_preds = false;  // parent trees are not unique; depth is
  Recompute();
}

void IncrementalBfs::Recompute() {
  par::ThreadPool& pool = opts_.Pool();
  RunControl ctl;
  ctl.workspace = &ws_;
  depth_ = Bfs(*snapshot_->View(pool), source_, opts_, ctl).depth;
  ++stats_.full_recomputes;
}

void IncrementalBfs::Repair() {
  par::ThreadPool& pool = opts_.Pool();
  BfsRepairProblem base_prob;
  base_prob.depth = depth_.data();
  base_prob.tombs = snapshot_->tombstones().data();
  base_prob.num_tombs = snapshot_->tombstones().size();
  BfsRepairProblem delta_prob;
  delta_prob.depth = depth_.data();

  std::vector<vid_t> frontier;
  for (const EdgeUpdate& up : snapshot_->inserted_since_parent()) {
    const std::int32_t du = depth_[up.src];
    if (du < 0) continue;
    const std::int32_t cand = du + 1;
    if (depth_[up.dst] < 0 || cand < depth_[up.dst]) {
      depth_[up.dst] = cand;
      frontier.push_back(up.dst);
    }
  }
  SortUnique(&frontier);
  RepairWave<BfsRepairFunctor>(pool, *snapshot_, base_prob, delta_prob,
                               &frontier, &ws_);
  ++stats_.repairs;
}

void IncrementalBfs::Update(std::shared_ptr<const Snapshot> next) {
  GR_CHECK(next != nullptr, "Update needs a snapshot");
  if (next->epoch() == snapshot_->epoch()) return;
  const bool repairable = detail::Repairable(*next, snapshot_->epoch());
  snapshot_ = std::move(next);
  if (repairable) {
    Repair();
  } else {
    Recompute();
  }
}

IncrementalSssp::IncrementalSssp(std::shared_ptr<const Snapshot> snapshot,
                                 vid_t source, SsspOptions opts)
    : opts_(std::move(opts)), source_(source),
      snapshot_(std::move(snapshot)) {
  GR_CHECK(snapshot_ != nullptr, "IncrementalSssp needs a snapshot");
  GR_CHECK(snapshot_->base().has_weights(),
           "IncrementalSssp needs a weighted graph");
  opts_.compute_preds = false;
  Recompute();
}

void IncrementalSssp::Recompute() {
  par::ThreadPool& pool = opts_.Pool();
  RunControl ctl;
  ctl.workspace = &ws_;
  dist_ = Sssp(*snapshot_->View(pool), source_, opts_, ctl).dist;
  ++stats_.full_recomputes;
}

void IncrementalSssp::Repair() {
  par::ThreadPool& pool = opts_.Pool();
  SsspRepairProblem base_prob;
  base_prob.dist = dist_.data();
  base_prob.weights = snapshot_->base().weights().data();
  base_prob.tombs = snapshot_->tombstones().data();
  base_prob.num_tombs = snapshot_->tombstones().size();
  SsspRepairProblem delta_prob;
  delta_prob.dist = dist_.data();
  delta_prob.weights = snapshot_->delta().weights().data();

  std::vector<vid_t> frontier;
  for (const EdgeUpdate& up : snapshot_->inserted_since_parent()) {
    const weight_t cand = dist_[up.src] + up.weight;
    if (cand < dist_[up.dst]) {
      dist_[up.dst] = cand;
      frontier.push_back(up.dst);
    }
  }
  SortUnique(&frontier);
  RepairWave<SsspRepairFunctor>(pool, *snapshot_, base_prob, delta_prob,
                                &frontier, &ws_);
  ++stats_.repairs;
}

void IncrementalSssp::Update(std::shared_ptr<const Snapshot> next) {
  GR_CHECK(next != nullptr, "Update needs a snapshot");
  if (next->epoch() == snapshot_->epoch()) return;
  const bool repairable = detail::Repairable(*next, snapshot_->epoch());
  snapshot_ = std::move(next);
  if (repairable) {
    Repair();
  } else {
    Recompute();
  }
}

IncrementalCc::IncrementalCc(std::shared_ptr<const Snapshot> snapshot,
                             CcOptions opts)
    : opts_(std::move(opts)), snapshot_(std::move(snapshot)) {
  GR_CHECK(snapshot_ != nullptr, "IncrementalCc needs a snapshot");
  Recompute();
}

void IncrementalCc::Recompute() {
  par::ThreadPool& pool = opts_.Pool();
  RunControl ctl;
  ctl.workspace = &ws_;
  CcResult r = Cc(*snapshot_->View(pool), opts_, ctl);
  component_ = std::move(r.component);
  num_components_ = r.num_components;
  ++stats_.full_recomputes;
}

void IncrementalCc::Repair() {
  // Union-by-min over the labels touched by inserted cross-component
  // edges. Labels are min-vertex-ids, so the labeling is already a
  // union-find forest of roots (component_[label] == label); attaching
  // the larger root under the smaller keeps the invariant and the final
  // flatten reproduces exactly what a from-scratch run would compute.
  vid_t* comp = component_.data();
  vid_t merges = 0;
  for (const EdgeUpdate& up : snapshot_->inserted_since_parent()) {
    const vid_t ru = par::FindRoot(comp, up.src);
    const vid_t rv = par::FindRoot(comp, up.dst);
    if (ru == rv) continue;
    comp[std::max(ru, rv)] = std::min(ru, rv);
    ++merges;
  }
  if (merges != 0) {
    // Each parent is smaller than its child, so in ascending order a
    // parent is already flat when its children read it.
    for (vid_t v = 0; v < static_cast<vid_t>(component_.size()); ++v) {
      comp[v] = comp[comp[v]];
    }
    num_components_ -= merges;
  }
  ++stats_.repairs;
}

void IncrementalCc::Update(std::shared_ptr<const Snapshot> next) {
  GR_CHECK(next != nullptr, "Update needs a snapshot");
  if (next->epoch() == snapshot_->epoch()) return;
  const bool repairable = detail::Repairable(*next, snapshot_->epoch());
  snapshot_ = std::move(next);
  if (repairable) {
    Repair();
  } else {
    Recompute();
  }
}

}  // namespace gunrock::dynamic
