// Operator policy knobs (paper Sections 4.4 and 4.5).
#pragma once

#include <cstddef>

#include "util/types.hpp"

namespace gunrock::par {
class Workspace;  // parallel/workspace.hpp
}  // namespace gunrock::par

namespace gunrock::core {

/// Workload-mapping strategy for advance (paper Section 4.4).
enum class LoadBalance {
  /// One frontier item per work unit, dynamic chunks. The paper's
  /// "per-thread fine-grained" baseline; imbalanced on skewed degrees.
  kThreadMapped,
  /// Merrill-style thread/warp/CTA binning: items grouped by neighbor-list
  /// size (<=32, <=256, >256) and each group processed with a matching
  /// parallel shape. The paper's fine-grained dynamic grouping.
  kTwc,
  /// Davidson-style equal-work partitioning: scan frontier degrees, chunk
  /// total edge work evenly, locate chunk owners by sorted search. The
  /// paper's coarse-grained load-balanced strategy.
  kEqualWork,
  /// Topology-aware hybrid (the Gunrock default): equal-work on scale-free
  /// graphs, TWC on small-degree large-diameter graphs (Section 4.4).
  kAuto,
};

inline const char* ToString(LoadBalance lb) {
  switch (lb) {
    case LoadBalance::kThreadMapped: return "thread-mapped";
    case LoadBalance::kTwc: return "twc";
    case LoadBalance::kEqualWork: return "equal-work";
    case LoadBalance::kAuto: return "auto";
  }
  return "?";
}

/// Execution backend for the dense-iteration primitives (PageRank, HITS,
/// SALSA, PPR): the frontier-operator push formulation, or the merge-path
/// semiring SpMV/SpMM sweep (core/spmv.hpp). kAuto reads no topology:
/// HITS and SALSA take the sweep on every graph (it beat the atomic push
/// on meshes and power-law graphs alike), PageRank follows its `pull`
/// flag, and PPR keeps push, where the engine's wave coalescing lives.
enum class SpmvBackend {
  kAuto,
  kFrontier,
  kSpmv,
};

inline const char* ToString(SpmvBackend b) {
  switch (b) {
    case SpmvBackend::kAuto: return "auto";
    case SpmvBackend::kFrontier: return "frontier";
    case SpmvBackend::kSpmv: return "spmv";
  }
  return "?";
}

/// Traversal direction policy (paper Section 4.5, push vs pull).
enum class Direction {
  kPush,        ///< scatter from the frontier (forward)
  kPull,        ///< gather into unvisited vertices (reverse/bottom-up)
  kOptimizing,  ///< Beamer-style dynamic switching
};

inline const char* ToString(Direction d) {
  switch (d) {
    case Direction::kPush: return "push";
    case Direction::kPull: return "pull";
    case Direction::kOptimizing: return "direction-optimizing";
  }
  return "?";
}

struct AdvanceConfig {
  LoadBalance lb = LoadBalance::kAuto;
  /// kAuto resolves with this hint (set from graph::IsScaleFreeLike).
  bool scale_free_hint = true;
  /// Items per chunk for the thread-mapped path.
  std::size_t grain = 64;
  /// When false, skip the SIMT lane-efficiency model (saves one pass over
  /// the frontier per advance).
  bool model_efficiency = true;
  /// Enactor-owned scratch arena. When set, every internal buffer (degree
  /// scans, TWC bins, chunk-local output, compaction counters) is reused
  /// across calls, making steady-state advances allocation-free. When
  /// null the operator falls back to a private per-call arena.
  par::Workspace* workspace = nullptr;
};

/// Resolves kAuto using the topology hint: the paper's hybrid picks the
/// coarse-grained (equal-work) strategy for irregular degree
/// distributions and the TWC grouping otherwise.
inline LoadBalance ResolveLoadBalance(const AdvanceConfig& cfg) {
  if (cfg.lb != LoadBalance::kAuto) return cfg.lb;
  return cfg.scale_free_hint ? LoadBalance::kEqualWork : LoadBalance::kTwc;
}

}  // namespace gunrock::core
