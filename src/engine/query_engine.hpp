// QueryEngine: an asynchronous multi-query scheduler over one shared
// thread pool — the serving layer the Gunrock papers assume around the
// library ("a library invoked repeatedly by host applications across many
// sources and contexts").
//
// Shape of the system:
//
//   Submit(graph, request) ──► bounded admission queue ──► N runner
//   threads, each: lease a warm core::Workspace from the WorkspacePool,
//   run the primitive's engine-invokable runner on the shared
//   par::ThreadPool, fulfill the QueryHandle.
//
// The contracts that make this work:
//
//  - *One pool, pass-granular interleaving.* Every operator pass is a
//    bulk-synchronous launch that owns all lanes of the pool; the pool's
//    shared-submitter mode (ThreadPool::AcquireSharedSubmitters) serializes
//    launches, so concurrent queries interleave between passes, never
//    within one. Results are therefore identical to a direct call on the
//    same pool — the engine adds concurrency, not nondeterminism.
//  - *One warm workspace per in-flight query.* Workspace leases recycle
//    across queries, so steady-state serving performs no workspace
//    allocation (WorkspacePool's stats make this checkable).
//  - *Cooperative cancellation.* Cancel()/deadlines flip a CancelToken
//    polled by the runner at iteration boundaries; a cancelled query
//    releases its lease and lanes at the next boundary.
//  - *Bounded admission.* The queue holds at most queue_capacity queries;
//    past that, Submit either blocks (kBlock, default) or completes the
//    handle immediately as kRejected (kReject) — backpressure instead of
//    unbounded memory growth. Per-graph quotas add a second admission
//    gate: a registered graph may cap its own in-flight queries, with the
//    same block/reject semantics. Across graphs, admitted queries wait in
//    per-graph FIFO queues and runners pick the next graph by weighted
//    stride scheduling (GraphOptions::weight) — a cap bounds one tenant,
//    fair share guarantees every tenant forward progress.
//  - *Finish-order streaming.* SubmitAll(..., kStream) returns a
//    CompletionStream that yields queries as they complete instead of
//    Wait()-in-submit-order — a consumer drains results at the engine's
//    service rate with no head-of-line blocking.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "engine/query.hpp"
#include "engine/workspace_pool.hpp"
#include "graph/csr.hpp"
#include "parallel/thread_pool.hpp"

namespace gunrock::engine {

struct QueryEngineOptions {
  /// Queries running concurrently (runner threads == workspace leases).
  unsigned max_in_flight = 4;
  /// Admitted-but-not-started queries the engine will hold.
  std::size_t queue_capacity = 64;
  /// What Submit does when the admission queue is full.
  enum class Backpressure {
    kBlock,   ///< block the submitter until a slot frees (default)
    kReject,  ///< complete the handle immediately with kRejected
  };
  Backpressure backpressure = Backpressure::kBlock;
  /// Shared compute pool; nullptr selects the process-global pool. The
  /// engine switches it into shared-submitter mode.
  par::ThreadPool* pool = nullptr;
  /// Master switch for the batch-coalescing pass: when a runner picks up
  /// a coalescing-enabled BFS/PPR query, it also pulls every compatible
  /// queued query on the same graph (same kind, same options) into one
  /// multi-source wave — up to 64 lanes sharing a single bit-parallel
  /// traversal (BfsBatch) or column-block power iteration (PprBatch) —
  /// and de-multiplexes the per-lane results to the individual handles.
  /// BFS results stay bit-identical to solo runs (depths are exact);
  /// PPR ranks agree with solo runs to the same rounding spread as two
  /// scalar runs of each other (bitwise on a single-lane pool — see
  /// ppr_batch.hpp). Per-query cancellation and deadlines still apply:
  /// a stopped lane drops out of the wave's active mask. Individual
  /// submits choose via SubmitOptions::coalesce; SubmitAll batches opt
  /// in by default.
  bool coalescing = true;
  /// Cap on a wave's lease-resident working set (a warm workspace lease
  /// retains its high-water mark forever): BFS waves cost ~36n bytes of
  /// lane-mask state regardless of width, PPR waves ~12n fixed plus 16n
  /// per lane (two double columns). The fixed cost over budget disables
  /// merging on that graph; otherwise the per-lane term caps the wave
  /// width. Without this, one 64-lane PPR wave on a 10M-vertex graph
  /// would permanently grow a lease by ~10 GB. When the budget allows
  /// fewer than two lanes, queries run solo.
  std::size_t coalesce_budget_bytes = std::size_t{256} << 20;
};

/// Per-registration serving knobs.
struct GraphOptions {
  /// Admission quota: maximum queries simultaneously in flight (queued +
  /// running) against this graph; 0 = unlimited. (Named `quota`, not
  /// max_in_flight, because QueryEngineOptions::max_in_flight sizes the
  /// runner/lease pool — an unrelated knob.) Submits past the quota
  /// follow the engine's backpressure policy — block until a query on
  /// this graph reaches a terminal state (kBlock) or complete the handle
  /// as kRejected (kReject). The quota is released on *any* terminal
  /// transition: done, cancelled, deadline or failure.
  std::size_t quota = 0;
  /// Fair-share weight (> 0). Queued queries are held in per-graph FIFO
  /// queues and runners pick the next graph by stride scheduling: each
  /// pickup advances the graph's virtual pass by 1/weight, and the graph
  /// with the smallest pass among those with queued work runs next. A
  /// graph with weight 2 therefore gets two pickups for every one a
  /// weight-1 graph gets — and, unlike the quota cap, a flooding tenant
  /// can never starve a light one: the light graph's next query is always
  /// at most a few pickups away, no matter how deep the flooder's
  /// backlog. Order *within* one graph stays FIFO, so single-graph
  /// workloads behave exactly as before.
  double weight = 1.0;
  /// Per-graph execution backend for the dense-iteration primitives
  /// (pagerank / hits / salsa / ppr): requests that arrive with
  /// backend == kAuto in their options are stamped with this value at
  /// submit, so the winning backend for a topology is chosen once at
  /// RegisterGraph time (the push/pull policy precedent). kAuto leaves
  /// requests untouched — each primitive then resolves kAuto by its own
  /// rule (core/policy.hpp). A non-auto value in the request always wins
  /// over this knob.
  core::SpmvBackend backend = core::SpmvBackend::kAuto;
};

struct SubmitOptions {
  /// Latency budget from admission; 0 = none. A query past its deadline
  /// stops at the next iteration boundary (or never starts) and completes
  /// as kDeadlineExceeded.
  double deadline_ms = 0.0;
  /// Whether this query may be merged into a batched wave (only relevant
  /// for coalescible requests — see engine::CoalescibleRequest — and only
  /// when the engine's coalescing option is on). kDefault resolves to off
  /// for Submit; for SubmitAll it resolves to on only when the graph's
  /// scale-free hint is set — wave formation breaks even on meshes and
  /// road networks, so non-scale-free graphs skip it unless kOn forces
  /// the merge. kOn opts a query in regardless of entry path or topology.
  enum class Coalesce { kDefault, kOn, kOff };
  Coalesce coalesce = Coalesce::kDefault;
  /// Epoch pinning for dynamic graphs: 0 (default) resolves to the
  /// latest committed snapshot at submit time; a nonzero value pins the
  /// query to that exact epoch's view, so a reader can correlate results
  /// across a mutation storm. Submit throws for an epoch outside the
  /// graph's retention window, and for any nonzero epoch on a static
  /// registration. The snapshot is resolved once at admission — every
  /// query (and every lane of a coalesced wave, which only merges
  /// pointer-identical views) sees one consistent adjacency for its
  /// whole run, no matter what commits land meanwhile.
  std::uint64_t epoch = 0;
};

/// Tag selecting the streaming SubmitAll overload:
/// `engine.SubmitAll(graph, sources, proto, kStream)`.
struct StreamTag {};
inline constexpr StreamTag kStream{};

class QueryEngine;

/// Future-style handle to one submitted query. Copyable (shared state);
/// outlives the engine's interest in the query but must not outlive the
/// engine itself while still waiting.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  std::uint64_t id() const;
  QueryStatus status() const;
  bool Done() const { return IsTerminal(status()); }

  /// Blocks until the query reaches a terminal state; returns the
  /// response (valid for the handle's lifetime).
  const QueryResponse& Wait() const&;
  /// Rvalue-handle overload: the handle dies with the full expression, so
  /// the response is returned by value instead of by soon-dangling
  /// reference (engine.Submit(...).Wait() is safe).
  QueryResponse Wait() &&;

  /// Bounded wait; true when terminal within `ms`.
  bool WaitForMs(double ms) const;

  /// Requests cooperative cancellation (idempotent; takes effect at the
  /// next iteration boundary, or at pickup for a still-queued query).
  void Cancel() const;

 private:
  friend class QueryEngine;
  struct State;
  explicit QueryHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// Finish-order drain of one streamed batch. Completions surface in the
/// order queries reach a terminal state (kDone, kCancelled, ... — every
/// submitted query is delivered exactly once, including rejects), not in
/// submission order. Copyable (shared state), but completions are
/// consumed: each one goes to exactly one Next() caller.
class CompletionStream {
 public:
  struct Completion {
    std::size_t index = 0;  ///< position in the submitted source span
    QueryHandle handle;     ///< terminal; Wait() returns immediately
  };

  CompletionStream() = default;

  /// Blocks for the next query to finish; std::nullopt once every query
  /// of the batch has been delivered (immediately for an empty batch).
  std::optional<Completion> Next();

  /// Bounded-wait Next(): std::nullopt after `ms` milliseconds with no
  /// completion — or immediately when the batch is fully delivered.
  /// Distinguish the two with delivered() == size(); a timeout leaves the
  /// stream intact, so a serving loop on a quiet stream can wake, do
  /// other work (report liveness, check shutdown flags) and come back.
  std::optional<Completion> NextFor(double ms);

  /// For open-ended streams (QueryEngine::OpenStream): declares that no
  /// further queries will be attached. Next() drains what was submitted
  /// and then returns std::nullopt; without this call an idle open stream
  /// blocks in Next() waiting for future submissions. No-op on batch
  /// streams (they are born closed at their batch size).
  void CloseSubmission();

  /// Queries in the batch (submitted so far, for an open stream).
  std::size_t size() const;
  /// Completions already handed out by Next().
  std::size_t delivered() const;

  /// Submit-order handles of the whole batch (e.g. for Cancel()); the
  /// batch is also drainable through Next() as usual afterwards.
  std::span<const QueryHandle> handles() const { return handles_; }

 private:
  friend class QueryEngine;
  friend class QueryHandle;  // QueryHandle::State feeds Shared
  struct Shared;
  std::shared_ptr<Shared> shared_;
  std::vector<QueryHandle> handles_;
};

class QueryEngine {
 public:
  explicit QueryEngine(QueryEngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Adds `graph` to the registry under `name` (replacing any previous
  /// entry). The engine warms the lazy reverse-edge cache and computes
  /// the scale-free load-balance hint up front, so concurrent queries
  /// never race on the cache's first materialization and short queries
  /// don't pay the O(|V|) hint reduction per run. (The reverse CSR that
  /// HITS/SALSA need is built lazily at first use instead — it doubles
  /// the graph's footprint, so traversal-only serving never pays it.)
  /// In-flight queries keep their graph alive through a shared_ptr.
  void RegisterGraph(const std::string& name, graph::Csr graph,
                     const GraphOptions& gopts = {});
  void RegisterGraph(const std::string& name,
                     std::shared_ptr<const graph::Csr> graph,
                     const GraphOptions& gopts = {});
  bool HasGraph(const std::string& name) const;
  /// Throws gunrock::Error for an unknown name.
  std::shared_ptr<const graph::Csr> GetGraph(const std::string& name) const;

  /// Registers a mutable graph under `name`. Queries resolve a snapshot
  /// at submit time (SubmitOptions::epoch pins an older one); mutations
  /// go through the DynamicGraph handle itself — the engine only ever
  /// sees immutable snapshot views, so the admission, coalescing and
  /// quota machinery is unchanged. The registry-precomputed scale-free
  /// hint comes from the base at registration time (mutation batches are
  /// small relative to the base, so the topology class is stable).
  void RegisterDynamicGraph(const std::string& name,
                            std::shared_ptr<dynamic::DynamicGraph> graph,
                            const GraphOptions& gopts = {});
  /// The mutable handle registered under `name`; null when the name is
  /// bound to a static graph. Throws gunrock::Error for an unknown name.
  std::shared_ptr<dynamic::DynamicGraph> GetDynamicGraph(
      const std::string& name) const;

  /// Admits one query against a registered graph. Throws gunrock::Error
  /// for an unknown graph or a shut-down engine; applies the backpressure
  /// policy when the queue is full or the graph's quota is exhausted.
  QueryHandle Submit(const std::string& graph, QueryRequest request,
                     const SubmitOptions& options = {});

  /// Open-ended completion stream for incremental submission — the shape
  /// a long-lived connection needs: attach queries one at a time as they
  /// arrive off the wire, drain completions in finish order concurrently.
  /// The stream's Completion::index is the attach order (0, 1, 2, ...).
  /// Call CloseSubmission() when no more queries will be attached.
  CompletionStream OpenStream();
  /// Admits one query and attaches it to `stream` (which must come from
  /// OpenStream()); its completion is delivered through the stream like a
  /// batch member's. Returns the handle too (for Cancel()).
  QueryHandle Submit(const std::string& graph, QueryRequest request,
                     const SubmitOptions& options, CompletionStream& stream);

  /// Batch submission: stamps `prototype` with each source in turn
  /// (WithSource) and admits them all. With the kBlock policy this
  /// naturally throttles to the engine's service rate.
  std::vector<QueryHandle> SubmitAll(const std::string& graph,
                                     std::span<const vid_t> sources,
                                     const QueryRequest& prototype,
                                     const SubmitOptions& options = {});

  /// Streaming batch submission: same admission as SubmitAll, but the
  /// returned CompletionStream yields queries in finish order — no
  /// Wait()-in-submit-order head-of-line blocking.
  CompletionStream SubmitAll(const std::string& graph,
                             std::span<const vid_t> sources,
                             const QueryRequest& prototype,
                             const SubmitOptions& options, StreamTag);
  CompletionStream SubmitAll(const std::string& graph,
                             std::span<const vid_t> sources,
                             const QueryRequest& prototype, StreamTag tag) {
    return SubmitAll(graph, sources, prototype, SubmitOptions{}, tag);
  }

  /// Stops admission, fails queued queries over to kCancelled, waits for
  /// running queries to finish. Idempotent; the destructor calls it.
  /// Streamed batches stay drainable: their cancelled completions are
  /// delivered through the CompletionStream as usual.
  void Shutdown();

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failed = 0;
    /// Batched multi-source runs executed (each served >= 2 queries).
    std::uint64_t waves = 0;
    /// Queries served through waves (waves' lane count total).
    std::uint64_t coalesced = 0;
    /// Largest wave formed so far (lanes).
    std::uint64_t max_wave = 0;
    /// Gauges (snapshot, not monotone): admitted queries waiting for a
    /// runner, and queries currently executing. The observability layer
    /// polls these for queue-depth reporting.
    std::uint64_t queued = 0;
    std::uint64_t running = 0;
  };
  Stats stats() const;

  /// Serving-telemetry summary of one terminal transition, pushed to the
  /// registered observer. Carries only what an observability layer needs
  /// (family, outcome, latency split) — never the result payload, so
  /// observing is O(1) per query.
  struct QueryObservation {
    const char* kind = "";  ///< KindName() of the request
    QueryStatus status = QueryStatus::kDone;
    double queue_ms = 0.0;
    double run_ms = 0.0;
    double total_ms = 0.0;
  };
  using QueryObserver = std::function<void(const QueryObservation&)>;
  /// Registers `observer`, called once per query on its terminal
  /// transition (any status, including rejects), after the handle is
  /// fulfilled and outside engine locks. Pass nullptr to clear. The
  /// observer must be thread-safe: runners invoke it concurrently.
  void SetObserver(QueryObserver observer);
  WorkspacePool::Stats workspace_stats() const { return workspaces_.stats(); }
  /// Queries currently in flight (queued + running) against `name`;
  /// throws for an unknown graph.
  std::size_t GraphInFlight(const std::string& name) const;
  par::ThreadPool& pool() const noexcept { return *pool_; }
  unsigned max_in_flight() const noexcept {
    return static_cast<unsigned>(runners_.size());
  }

 private:
  friend class QueryHandle;  // QueryHandle::State holds a GraphAux ref

  /// Mutable per-registration state shared between the registry entry and
  /// every in-flight query against it (so a Register replacing the entry
  /// does not orphan the accounting of already-admitted queries).
  struct GraphAux;

  void RunnerLoop();
  /// Fair-share pickup (stride scheduling): pops the front of the queued
  /// graph with the smallest virtual pass and charges it 1/weight.
  /// Returns nullptr when every per-graph queue is empty. Caller holds
  /// queue_mutex_.
  std::shared_ptr<QueryHandle::State> PickNextLocked();
  /// Removes `aux` from the scheduled set if its queue emptied; adds it
  /// on first enqueue (charging new arrivals the current virtual time so
  /// an idle graph cannot hoard credit). Caller holds queue_mutex_.
  void EnqueueLocked(const std::shared_ptr<QueryHandle::State>& state);
  void Execute(const std::shared_ptr<QueryHandle::State>& state);
  /// Solo execution body (the classic per-query path); the state is
  /// already marked running and its token pre-checked.
  void RunSolo(const std::shared_ptr<QueryHandle::State>& state);
  /// Pulls every queued query compatible with `leader` (same graph, same
  /// kind and options, coalescing-enabled) into `wave`, up to the 64-lane
  /// cap; removed queries free queue capacity.
  void GatherWave(const std::shared_ptr<QueryHandle::State>& leader,
                  std::vector<std::shared_ptr<QueryHandle::State>>* wave);
  /// Runs a >= 2-lane wave through BfsBatch / PprBatch and de-multiplexes
  /// per-lane results to the handles; per-lane tokens are polled at every
  /// iteration boundary, dropping stopped lanes from the active mask.
  void RunWave(std::vector<std::shared_ptr<QueryHandle::State>> wave);
  /// `from_batch` marks the SubmitAll entry paths: a Coalesce::kDefault
  /// query opts into wave formation only from a batch AND on a graph
  /// whose scale-free hint is set (meshes break even; see
  /// SubmitOptions::Coalesce).
  QueryHandle SubmitImpl(const std::string& graph, QueryRequest request,
                         const SubmitOptions& options, bool from_batch,
                         std::shared_ptr<CompletionStream::Shared> stream,
                         std::size_t stream_index);
  /// Fulfills the handle (idempotent) and, on the actual transition,
  /// releases the graph quota, notifies blocked submitters and feeds the
  /// completion stream.
  void Complete(const std::shared_ptr<QueryHandle::State>& state,
                QueryStatus status, QueryResult result, std::string error);
  void Count(QueryStatus status);

  QueryEngineOptions options_;
  par::ThreadPool* pool_ = nullptr;
  WorkspacePool workspaces_;

  struct GraphEntry {
    std::shared_ptr<const graph::Csr> graph;
    /// Non-null for RegisterDynamicGraph entries; queries resolve their
    /// snapshot view from it at submit time.
    std::shared_ptr<dynamic::DynamicGraph> dynamic;
    bool scale_free = false;  // precomputed ComputeScaleFreeHint
    core::SpmvBackend backend = core::SpmvBackend::kAuto;  // GraphOptions
    std::shared_ptr<GraphAux> aux;
  };
  GraphEntry GetEntry(const std::string& name) const;
  /// Reverse CSR of `g`, built on first use and cached in `aux`
  /// (thread-safe; concurrent first users serialize on a once_flag).
  const graph::Csr& ReverseOf(const graph::Csr& g, GraphAux& aux);

  mutable std::mutex graphs_mutex_;
  std::map<std::string, GraphEntry> graphs_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;      // runners wait for work
  std::condition_variable not_full_cv_;   // blocked submitters wait here
  /// Fair-share scheduled set: every GraphAux with a non-empty waiting
  /// queue, scanned linearly at pickup (registrations are few). The
  /// per-graph FIFO queues live inside GraphAux; queued_ is their total,
  /// bounded by options_.queue_capacity.
  std::vector<std::shared_ptr<GraphAux>> scheduled_;
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  /// Virtual time floor: the pass charged at the latest pickup. A graph
  /// entering the scheduled set starts at max(its pass, this), so credit
  /// does not accrue while idle.
  double virtual_time_ = 0.0;
  bool accepting_ = true;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  Stats stats_;

  mutable std::mutex observer_mutex_;
  std::shared_ptr<const QueryObserver> observer_;

  std::vector<std::thread> runners_;
};

}  // namespace gunrock::engine
