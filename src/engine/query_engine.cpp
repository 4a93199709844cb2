#include "engine/query_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "core/cancel.hpp"
#include "graph/stats.hpp"
#include "primitives/bfs_batch.hpp"
#include "primitives/ppr_batch.hpp"
#include "util/error.hpp"

namespace gunrock::engine {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Terminal status of a query whose token fired: a pure deadline expiry
/// maps to kDeadlineExceeded, an explicit Cancel() (even one racing a
/// deadline) to kCancelled. The single classification shared by the
/// queued-drop, mid-wave-drop and post-wave paths.
QueryStatus StoppedStatus(const core::CancelToken& token) {
  const bool deadline =
      token.deadline_exceeded() && !token.cancel_requested();
  return deadline ? QueryStatus::kDeadlineExceeded
                  : QueryStatus::kCancelled;
}

}  // namespace

/// Mutable per-registration state shared by the registry entry and every
/// query admitted against it. `quota` and `weight` are immutable after
/// registration; `in_flight`, `waiting` and `pass` are guarded by the
/// engine's queue_mutex_; the reverse CSR is built at most once behind
/// the once_flag.
struct QueryEngine::GraphAux {
  std::size_t quota = 0;      ///< 0 = unlimited
  double weight = 1.0;        ///< fair-share weight (> 0)
  std::size_t in_flight = 0;  ///< queued + running (guarded by queue_mutex_)
  /// Admitted queries not yet picked up, FIFO within the graph. The
  /// engine's fair-share scheduler drains these queues by weighted
  /// stride: `pass` is this graph's virtual time, advanced by 1/weight
  /// per pickup; the scheduled graph with the smallest pass runs next.
  std::deque<std::shared_ptr<QueryHandle::State>> waiting;
  double pass = 0.0;
  std::once_flag reverse_once;
  std::shared_ptr<const graph::Csr> reverse;
};

/// Queue feeding one CompletionStream: Complete() pushes every terminal
/// query of the batch here, in the order the transitions happen.
struct CompletionStream::Shared {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<CompletionStream::Completion> ready;
  std::size_t expected = 0;   ///< batch size / queries attached so far
  std::size_t delivered = 0;  ///< completions handed out by Next()
  /// True for OpenStream() streams still accepting attachments: their
  /// `expected` grows per Submit, and Next() must keep waiting on an
  /// empty drained stream until CloseSubmission() flips this off. Batch
  /// streams are born closed at their batch size.
  bool open = false;

  bool DrainedLocked() const {
    return !open && delivered == expected;
  }

  /// Shared drain step of Next()/NextFor(): pops the next completion
  /// under the caller's lock, or nullopt when nothing is ready (fully
  /// delivered batch or timed-out wait) — one copy of the delivery
  /// bookkeeping.
  std::optional<Completion> PopReadyLocked() {
    if (ready.empty()) return std::nullopt;
    Completion next = std::move(ready.front());
    ready.pop_front();
    ++delivered;
    return next;
  }
};

/// Shared state behind one QueryHandle: the request, the cancellation
/// token, and the response slot the runner fulfills.
struct QueryHandle::State {
  std::uint64_t id = 0;
  std::shared_ptr<const graph::Csr> graph;
  /// For dynamic graphs: the epoch-pinned snapshot backing `graph`, held
  /// so the view (and its lazily built reverse) outlives the run even if
  /// the epoch ages out of the retention window mid-query.
  std::shared_ptr<const dynamic::Snapshot> snapshot;
  std::shared_ptr<QueryEngine::GraphAux> aux;
  int scale_free_hint = -1;  // registry-precomputed (see RunControl)
  QueryRequest request;
  core::CancelToken token;
  /// Holds one slot of the graph's quota (set at admission; rejected
  /// queries never count).
  bool counted = false;
  /// May be merged into a batched multi-source wave (resolved at submit:
  /// engine coalescing on + submit opted in + request coalescible).
  bool coalescible = false;
  /// Left its waiting queue for a runner (guarded by queue_mutex_);
  /// backs the stats().running gauge.
  bool picked = false;
  /// Streamed batch this query belongs to (null for plain submits).
  std::shared_ptr<CompletionStream::Shared> stream;
  std::size_t stream_index = 0;
  /// Claimed by the one Complete() call that performs the terminal
  /// transition; later calls are no-ops.
  std::atomic<bool> completed{false};

  Clock::time_point submitted_at{};
  Clock::time_point started_at{};

  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  QueryStatus status = QueryStatus::kQueued;
  QueryResponse response;
};

// --- QueryHandle ------------------------------------------------------------

std::uint64_t QueryHandle::id() const {
  GR_CHECK(state_ != nullptr, "empty QueryHandle");
  return state_->id;
}

QueryStatus QueryHandle::status() const {
  GR_CHECK(state_ != nullptr, "empty QueryHandle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->status;
}

const QueryResponse& QueryHandle::Wait() const& {
  GR_CHECK(state_ != nullptr, "empty QueryHandle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return IsTerminal(state_->status); });
  return state_->response;
}

QueryResponse QueryHandle::Wait() && {
  const QueryHandle& self = *this;
  return self.Wait();  // copy out: the temporary handle owns the state
}

bool QueryHandle::WaitForMs(double ms) const {
  GR_CHECK(state_ != nullptr, "empty QueryHandle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(ms),
      [&] { return IsTerminal(state_->status); });
}

void QueryHandle::Cancel() const {
  GR_CHECK(state_ != nullptr, "empty QueryHandle");
  state_->token.Cancel();
}

// --- CompletionStream -------------------------------------------------------

std::optional<CompletionStream::Completion> CompletionStream::Next() {
  if (!shared_) return std::nullopt;
  std::unique_lock<std::mutex> lock(shared_->mutex);
  shared_->cv.wait(lock, [&] {
    return !shared_->ready.empty() || shared_->DrainedLocked();
  });
  return shared_->PopReadyLocked();  // empty = batch fully delivered
}

std::optional<CompletionStream::Completion> CompletionStream::NextFor(
    double ms) {
  if (!shared_) return std::nullopt;
  std::unique_lock<std::mutex> lock(shared_->mutex);
  shared_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(ms), [&] {
        return !shared_->ready.empty() || shared_->DrainedLocked();
      });
  return shared_->PopReadyLocked();  // empty = timeout or drained
}

void CompletionStream::CloseSubmission() {
  if (!shared_) return;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    shared_->open = false;
  }
  shared_->cv.notify_all();
}

std::size_t CompletionStream::size() const {
  if (!shared_) return 0;
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->expected;
}

std::size_t CompletionStream::delivered() const {
  if (!shared_) return 0;
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->delivered;
}

// --- QueryEngine ------------------------------------------------------------

QueryEngine::QueryEngine(QueryEngineOptions options)
    : options_(options),
      pool_(options.pool ? options.pool : &par::ThreadPool::Global()),
      workspaces_(options.max_in_flight > 0 ? options.max_in_flight : 1) {
  GR_CHECK(options_.max_in_flight > 0, "QueryEngine needs max_in_flight >= 1");
  GR_CHECK(options_.queue_capacity > 0,
           "QueryEngine needs queue_capacity >= 1");
  // Runner threads are concurrent external submitters of the shared pool;
  // serialize their bulk-synchronous launches instead of treating them as
  // misuse. Released in Shutdown(), so the pool reverts to the strict
  // single-owner contract once no engine is using it.
  pool_->AcquireSharedSubmitters();
  runners_.reserve(options_.max_in_flight);
  for (unsigned r = 0; r < options_.max_in_flight; ++r) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

QueryEngine::~QueryEngine() { Shutdown(); }

void QueryEngine::RegisterGraph(const std::string& name, graph::Csr graph,
                                const GraphOptions& gopts) {
  RegisterGraph(name, std::make_shared<const graph::Csr>(std::move(graph)),
                gopts);
}

void QueryEngine::RegisterGraph(const std::string& name,
                                std::shared_ptr<const graph::Csr> graph,
                                const GraphOptions& gopts) {
  GR_CHECK(graph != nullptr, "RegisterGraph: null graph");
  GR_CHECK(gopts.weight > 0.0, "RegisterGraph: fair-share weight must be > 0");
  GraphEntry entry;
  // Materialize the lazily built per-edge source array now: its first
  // build mutates a cache inside the (otherwise read-only) Csr, and two
  // concurrent CC queries must not race on it. The scale-free hint is
  // likewise graph-invariant — pay its O(|V|) reduction once here, not
  // once per query.
  graph->edge_sources(*pool_);
  entry.scale_free = graph::ComputeScaleFreeHint(*graph, *pool_);
  entry.backend = gopts.backend;
  entry.graph = std::move(graph);
  entry.aux = std::make_shared<GraphAux>();
  entry.aux->quota = gopts.quota;
  entry.aux->weight = gopts.weight;
  std::lock_guard<std::mutex> lock(graphs_mutex_);
  graphs_[name] = std::move(entry);
}

void QueryEngine::RegisterDynamicGraph(
    const std::string& name, std::shared_ptr<dynamic::DynamicGraph> graph,
    const GraphOptions& gopts) {
  GR_CHECK(graph != nullptr, "RegisterDynamicGraph: null graph");
  GR_CHECK(gopts.weight > 0.0,
           "RegisterDynamicGraph: fair-share weight must be > 0");
  // Same registration-time warming as a static graph, applied to the
  // initial base view: snapshot views created by later commits warm
  // their own caches when they materialize.
  std::shared_ptr<const graph::Csr> base =
      graph->Current()->View(*pool_);
  base->edge_sources(*pool_);
  GraphEntry entry;
  entry.scale_free = graph::ComputeScaleFreeHint(*base, *pool_);
  entry.backend = gopts.backend;
  entry.graph = std::move(base);
  entry.dynamic = std::move(graph);
  entry.aux = std::make_shared<GraphAux>();
  entry.aux->quota = gopts.quota;
  entry.aux->weight = gopts.weight;
  std::lock_guard<std::mutex> lock(graphs_mutex_);
  graphs_[name] = std::move(entry);
}

std::shared_ptr<dynamic::DynamicGraph> QueryEngine::GetDynamicGraph(
    const std::string& name) const {
  return GetEntry(name).dynamic;
}

bool QueryEngine::HasGraph(const std::string& name) const {
  std::lock_guard<std::mutex> lock(graphs_mutex_);
  return graphs_.count(name) > 0;
}

QueryEngine::GraphEntry QueryEngine::GetEntry(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(graphs_mutex_);
  auto it = graphs_.find(name);
  GR_CHECK(it != graphs_.end(), "QueryEngine: unknown graph '" + name + "'");
  return it->second;
}

std::shared_ptr<const graph::Csr> QueryEngine::GetGraph(
    const std::string& name) const {
  return GetEntry(name).graph;
}

const graph::Csr& QueryEngine::ReverseOf(const graph::Csr& g,
                                         GraphAux& aux) {
  std::call_once(aux.reverse_once, [&] {
    aux.reverse = std::make_shared<const graph::Csr>(
        graph::ReverseCsr(g, *pool_));
  });
  return *aux.reverse;
}

std::size_t QueryEngine::GraphInFlight(const std::string& name) const {
  const GraphEntry entry = GetEntry(name);  // throws on unknown graph
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return entry.aux->in_flight;
}

QueryHandle QueryEngine::Submit(const std::string& graph,
                                QueryRequest request,
                                const SubmitOptions& options) {
  return SubmitImpl(graph, std::move(request), options, false, nullptr, 0);
}

CompletionStream QueryEngine::OpenStream() {
  CompletionStream stream;
  stream.shared_ = std::make_shared<CompletionStream::Shared>();
  stream.shared_->open = true;
  return stream;
}

QueryHandle QueryEngine::Submit(const std::string& graph,
                                QueryRequest request,
                                const SubmitOptions& options,
                                CompletionStream& stream) {
  GR_CHECK(stream.shared_ != nullptr,
           "Submit: stream must come from OpenStream()");
  std::size_t index;
  {
    std::lock_guard<std::mutex> lock(stream.shared_->mutex);
    GR_CHECK(stream.shared_->open,
             "Submit: stream's submission side is closed");
    index = stream.shared_->expected++;
  }
  try {
    return SubmitImpl(graph, std::move(request), options, false,
                      stream.shared_, index);
  } catch (...) {
    // The query was never admitted, so no completion will ever arrive
    // for this slot — give it back or the stream can never drain.
    {
      std::lock_guard<std::mutex> lock(stream.shared_->mutex);
      --stream.shared_->expected;
    }
    stream.shared_->cv.notify_all();
    throw;
  }
}

QueryHandle QueryEngine::SubmitImpl(
    const std::string& graph, QueryRequest request,
    const SubmitOptions& options, bool from_batch,
    std::shared_ptr<CompletionStream::Shared> stream,
    std::size_t stream_index) {
  auto state = std::make_shared<QueryHandle::State>();
  GraphEntry entry = GetEntry(graph);  // throws on unknown graph
  if (entry.dynamic) {
    // Resolve the pinned view now: the query keeps exactly this
    // adjacency no matter what commits land while it waits or runs.
    std::shared_ptr<const dynamic::Snapshot> snap =
        options.epoch == 0 ? entry.dynamic->Current()
                           : entry.dynamic->SnapshotAt(options.epoch);
    state->graph = snap->View(*pool_);
    state->snapshot = std::move(snap);
  } else {
    GR_CHECK(options.epoch == 0,
             "QueryEngine: graph '" + graph +
                 "' is static; epoch pinning needs a dynamic graph");
    state->graph = std::move(entry.graph);
  }
  state->aux = entry.aux;
  state->scale_free_hint = entry.scale_free ? 1 : 0;
  state->request = std::move(request);
  ApplyBackendPolicy(state->request, entry.backend);
  // Matrix queries reuse the coalescing budget model for their internal
  // wave width, gated on the registry's scale-free hint like BFS wave
  // formation; an explicit request value always wins.
  if (auto* m = std::get_if<MatrixQuery>(&state->request);
      m != nullptr && m->wave == 0) {
    m->wave = MatrixWaveWidth(state->graph->num_vertices(),
                              entry.scale_free,
                              options_.coalesce_budget_bytes);
  }
  // kDefault opts into wave formation only from the SubmitAll fan-out
  // paths AND on scale-free graphs — wave formation breaks even on
  // meshes/road networks, so those skip it unless kOn forces the merge.
  const bool opted_in =
      options.coalesce == SubmitOptions::Coalesce::kOn ||
      (options.coalesce == SubmitOptions::Coalesce::kDefault &&
       from_batch && entry.scale_free);
  state->coalescible = options_.coalescing && opted_in &&
                       CoalescibleRequest(state->request);
  state->stream = std::move(stream);
  state->stream_index = stream_index;
  state->submitted_at = Clock::now();
  if (options.deadline_ms > 0.0) {
    state->token.SetDeadlineAfterMs(options.deadline_ms);
  }

  GraphAux& aux = *entry.aux;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    GR_CHECK(accepting_, "QueryEngine: Submit after Shutdown");
    state->id = next_id_++;
    // Two admission gates with one policy: the global bounded queue
    // (queued_ totals the per-graph queues) and the graph's own
    // in-flight quota.
    const auto admissible = [&] {
      return queued_ < options_.queue_capacity &&
             (aux.quota == 0 || aux.in_flight < aux.quota);
    };
    if (!admissible()) {
      if (options_.backpressure ==
          QueryEngineOptions::Backpressure::kReject) {
        ++stats_.submitted;
        ++stats_.rejected;
        const char* why = queued_ >= options_.queue_capacity
                              ? "admission queue full"
                              : "graph quota exhausted";
        lock.unlock();
        Complete(state, QueryStatus::kRejected, {}, why);
        return QueryHandle(std::move(state));
      }
      not_full_cv_.wait(lock, [&] { return admissible() || !accepting_; });
      GR_CHECK(accepting_, "QueryEngine: shut down while Submit blocked");
    }
    EnqueueLocked(state);
    ++stats_.submitted;
    ++aux.in_flight;
    state->counted = true;
  }
  queue_cv_.notify_one();
  return QueryHandle(std::move(state));
}

void QueryEngine::EnqueueLocked(
    const std::shared_ptr<QueryHandle::State>& state) {
  const std::shared_ptr<GraphAux>& aux = state->aux;
  if (aux->waiting.empty()) {
    // Joining the scheduled set: start at the current virtual time, not
    // at a pass left behind before going idle — otherwise a graph could
    // bank credit while quiet and lock out the others on return.
    aux->pass = std::max(aux->pass, virtual_time_);
    scheduled_.push_back(aux);
  }
  aux->waiting.push_back(state);
  ++queued_;
}

std::shared_ptr<QueryHandle::State> QueryEngine::PickNextLocked() {
  if (queued_ == 0) return nullptr;
  std::size_t best = scheduled_.size();
  for (std::size_t i = 0; i < scheduled_.size(); ++i) {
    if (best == scheduled_.size() ||
        scheduled_[i]->pass < scheduled_[best]->pass) {
      best = i;
    }
  }
  GraphAux& aux = *scheduled_[best];
  auto state = std::move(aux.waiting.front());
  aux.waiting.pop_front();
  --queued_;
  virtual_time_ = aux.pass;
  aux.pass += 1.0 / aux.weight;
  state->picked = true;
  ++running_;
  if (aux.waiting.empty()) {
    scheduled_.erase(scheduled_.begin() +
                     static_cast<std::ptrdiff_t>(best));
  }
  return state;
}

std::vector<QueryHandle> QueryEngine::SubmitAll(
    const std::string& graph, std::span<const vid_t> sources,
    const QueryRequest& prototype, const SubmitOptions& options) {
  std::vector<QueryHandle> handles;
  handles.reserve(sources.size());
  for (const vid_t s : sources) {
    handles.push_back(SubmitImpl(graph, WithSource(prototype, s), options,
                                 /*from_batch=*/true, nullptr, 0));
  }
  return handles;
}

CompletionStream QueryEngine::SubmitAll(const std::string& graph,
                                        std::span<const vid_t> sources,
                                        const QueryRequest& prototype,
                                        const SubmitOptions& options,
                                        StreamTag) {
  CompletionStream stream;
  stream.shared_ = std::make_shared<CompletionStream::Shared>();
  stream.shared_->expected = sources.size();
  stream.handles_.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    stream.handles_.push_back(SubmitImpl(graph,
                                         WithSource(prototype, sources[i]),
                                         options, /*from_batch=*/true,
                                         stream.shared_, i));
  }
  return stream;
}

void QueryEngine::Shutdown() {
  std::deque<std::shared_ptr<QueryHandle::State>> orphaned;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) return;
    stopping_ = true;
    accepting_ = false;
    for (const auto& aux : scheduled_) {
      for (auto& state : aux->waiting) orphaned.push_back(std::move(state));
      aux->waiting.clear();
    }
    scheduled_.clear();
    queued_ = 0;
    stats_.cancelled += orphaned.size();
  }
  queue_cv_.notify_all();
  not_full_cv_.notify_all();
  for (auto& state : orphaned) {
    Complete(state, QueryStatus::kCancelled, {},
             "engine shut down before the query started");
  }
  for (auto& runner : runners_) {
    if (runner.joinable()) runner.join();
  }
  pool_->ReleaseSharedSubmitters();  // runners are gone; give the pool back
}

QueryEngine::Stats QueryEngine::stats() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  Stats snapshot = stats_;
  snapshot.queued = queued_;
  snapshot.running = running_;
  return snapshot;
}

void QueryEngine::SetObserver(QueryObserver observer) {
  auto shared = observer ? std::make_shared<const QueryObserver>(
                               std::move(observer))
                         : nullptr;
  std::lock_guard<std::mutex> lock(observer_mutex_);
  observer_ = std::move(shared);
}

void QueryEngine::Count(QueryStatus status) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  switch (status) {
    case QueryStatus::kDone: ++stats_.done; break;
    case QueryStatus::kCancelled: ++stats_.cancelled; break;
    case QueryStatus::kDeadlineExceeded: ++stats_.deadline_exceeded; break;
    case QueryStatus::kFailed: ++stats_.failed; break;
    default: break;
  }
}

void QueryEngine::RunnerLoop() {
  for (;;) {
    std::shared_ptr<QueryHandle::State> state;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || queued_ > 0; });
      state = PickNextLocked();
      if (!state) return;  // stopping_ and drained
    }
    not_full_cv_.notify_all();
    Execute(state);
  }
}

void QueryEngine::Execute(
    const std::shared_ptr<QueryHandle::State>& state) {
  std::vector<std::shared_ptr<QueryHandle::State>> wave;
  wave.push_back(state);
  if (options_.coalescing && state->coalescible) {
    GatherWave(state, &wave);
  }
  for (const auto& s : wave) {
    std::lock_guard<std::mutex> lock(s->mutex);
    s->started_at = Clock::now();
    s->status = QueryStatus::kRunning;
  }
  // Queries cancelled (or expired) while queued never touch the pool.
  std::vector<std::shared_ptr<QueryHandle::State>> live;
  live.reserve(wave.size());
  for (auto& s : wave) {
    if (s->token.ShouldStop()) {
      const QueryStatus status = StoppedStatus(s->token);
      Count(status);  // count first: Wait() returning implies stats landed
      Complete(s, status, {}, "stopped before start");
    } else {
      live.push_back(std::move(s));
    }
  }
  if (live.empty()) return;
  if (live.size() == 1) {
    RunSolo(live.front());  // a wave of one is just a query
    return;
  }
  RunWave(std::move(live));
}

void QueryEngine::RunSolo(
    const std::shared_ptr<QueryHandle::State>& state) {
  QueryStatus status;
  QueryResult result;
  std::string error;
  // Engine-level source validation with the canonical error text, shared
  // with the wave path's per-lane check — a client sees the identical
  // message whether its query ran solo or merged into a wave. (The
  // primitives' own GR_CHECKs stay as the backstop for direct callers.)
  if (auto bad = ValidateSource(state->request,
                                state->graph->num_vertices())) {
    Count(QueryStatus::kFailed);
    Complete(state, QueryStatus::kFailed, {}, std::move(*bad));
    return;
  }
  try {
    // Resolve the reverse graph before leasing a workspace: its one-time
    // build is a registry concern, not part of this query's scratch. The
    // build itself is not cancellable; re-check the token right after so
    // a query cancelled (or expired) during it stops before leasing a
    // workspace and starting the run.
    const graph::Csr* reverse = nullptr;
    if (NeedsReverseGraph(*state->graph, state->request)) {
      // Snapshot views carry their own reverse cache (one per epoch);
      // the registry cache only ever sees the static registration.
      reverse = state->snapshot
                    ? state->snapshot->ReverseView(*pool_).get()
                    : &ReverseOf(*state->graph, *state->aux);
      state->token.Check();
    }

    WorkspacePool::Lease lease = workspaces_.Acquire();
    RunControl ctl;
    ctl.workspace = &lease.workspace();
    ctl.cancel = &state->token;
    ctl.scale_free_hint = state->scale_free_hint;
    result = RunRequest(*state->graph, state->request, reverse, pool_, ctl);
    status = QueryStatus::kDone;
  } catch (const core::Cancelled& c) {
    status = c.deadline_exceeded ? QueryStatus::kDeadlineExceeded
                                 : QueryStatus::kCancelled;
    error = c.what();
  } catch (const std::exception& e) {
    status = QueryStatus::kFailed;
    error = e.what();
  }
  // The lease died with the try scope; bump the counters before
  // fulfilling the handle: a waiter observing the terminal state must
  // also observe the lease as released and the engine stats as updated.
  Count(status);
  Complete(state, status, std::move(result), std::move(error));
}

void QueryEngine::GatherWave(
    const std::shared_ptr<QueryHandle::State>& leader,
    std::vector<std::shared_ptr<QueryHandle::State>>* wave) {
  // Budget the *lease-resident* wave state — the buffers that stay in
  // the recycled workspace arena after the wave ends (per-lane result
  // vectors are handle-owned and freed with the response, so they don't
  // count). BFS waves cost a lane-count-independent ~36n bytes (three
  // LaneMaskFrontiers: an 8n mask plus 4n stamp array each) plus
  // frontier/candidate lists; PPR waves cost ~12n fixed (inv_out +
  // all-vertices) plus 16n per lane (two double columns). An over-budget
  // fixed cost disables merging on that graph outright; otherwise the
  // per-lane term caps the wave width.
  const auto n = static_cast<std::size_t>(leader->graph->num_vertices());
  const bool leader_is_bfs =
      std::holds_alternative<BfsQuery>(leader->request);
  // A PPR wave on the spmv backend keeps a third double column per lane
  // (the pre-scaled scores the SpMM gathers from): 24n/lane, not 16n.
  const bool leader_is_spmv_ppr =
      !leader_is_bfs && std::get<PprQuery>(leader->request).opts.backend ==
                            core::SpmvBackend::kSpmv;
  const std::size_t fixed_bytes = leader_is_bfs ? n * 36 : n * 12;
  const std::size_t per_lane_bytes =
      leader_is_bfs ? 0 : (leader_is_spmv_ppr ? n * 24 : n * 16);
  if (fixed_bytes > options_.coalesce_budget_bytes) return;
  const std::size_t budget_lanes =
      per_lane_bytes == 0
          ? kMaxBatchLanes
          : (options_.coalesce_budget_bytes - fixed_bytes) /
                per_lane_bytes;
  const std::size_t max_lanes =
      std::min<std::size_t>(kMaxBatchLanes, budget_lanes);
  if (max_lanes < 2) return;
  bool freed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Wave members must share the leader's graph, so only the leader's
    // own per-graph queue can hold candidates. Members ride the leader's
    // pickup without a stride charge of their own: a wave occupies one
    // runner slot, so fair share bills it as one pickup.
    GraphAux& aux = *leader->aux;
    auto it = aux.waiting.begin();
    while (it != aux.waiting.end() && wave->size() < max_lanes) {
      const auto& s = *it;
      if (s->coalescible && s->graph == leader->graph &&
          CoalesceCompatible(leader->request, s->request)) {
        (*it)->picked = true;
        ++running_;
        wave->push_back(std::move(*it));
        it = aux.waiting.erase(it);
        --queued_;
        freed = true;
      } else {
        ++it;
      }
    }
    if (aux.waiting.empty()) {
      std::erase(scheduled_, leader->aux);
    }
  }
  // Pulling members out of the queue freed admission capacity.
  if (freed) not_full_cv_.notify_all();
}

void QueryEngine::RunWave(
    std::vector<std::shared_ptr<QueryHandle::State>> wave) {
  const bool is_bfs =
      std::holds_alternative<BfsQuery>(wave.front()->request);
  // Per-lane source validation up front: an out-of-range source fails
  // *its own* query (exactly what the solo runner's GR_CHECK would do)
  // instead of poisoning the batched run and failing every lane of the
  // wave alongside it. One asymmetry mirrored from the solo runners: on
  // an empty graph PersonalizedPagerank succeeds with an empty result
  // *before* its seed range check (PprBatch does the same), so PPR
  // lanes skip validation there; scalar Bfs checks its source first, so
  // BFS lanes fail like solo calls do.
  const vid_t num_vertices = wave.front()->graph->num_vertices();
  const bool validate = is_bfs || num_vertices > 0;
  std::vector<vid_t> sources;
  sources.reserve(wave.size());
  {
    std::vector<std::shared_ptr<QueryHandle::State>> valid;
    valid.reserve(wave.size());
    for (auto& s : wave) {
      const vid_t source =
          is_bfs ? std::get<BfsQuery>(s->request).source
                 : std::get<PprQuery>(s->request).seeds.front();
      if (validate && (source < 0 || source >= num_vertices)) {
        Count(QueryStatus::kFailed);
        Complete(s, QueryStatus::kFailed, {},
                 SourceRangeError(is_bfs ? "bfs" : "ppr", source,
                                  num_vertices));
      } else {
        sources.push_back(source);
        valid.push_back(std::move(s));
      }
    }
    wave = std::move(valid);
  }
  if (wave.empty()) return;
  if (wave.size() == 1) {
    RunSolo(wave.front());
    return;
  }
  const std::size_t num_lanes = wave.size();
  // Wave accounting lands before any lane can observably complete (the
  // same stats-then-fulfill order Count/Complete follow): a waiter that
  // saw its handle finish also sees the wave counted.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    ++stats_.waves;
    stats_.coalesced += num_lanes;
    stats_.max_wave = std::max<std::uint64_t>(stats_.max_wave, num_lanes);
  }

  // Per-lane cancellation: polled by the batch primitive at every
  // iteration boundary. A fired lane completes right here — its waiter
  // wakes at the boundary, not at wave end — and drops out of the active
  // mask; the surviving lanes' results are unaffected (lane columns are
  // independent).
  std::vector<char> finished(num_lanes, 0);
  BatchLaneControl lanes;
  lanes.keep = [&](std::uint64_t active) {
    std::uint64_t keep = active;
    for (std::size_t l = 0; l < num_lanes; ++l) {
      if (((active >> l) & 1) == 0) continue;
      const auto& s = wave[l];
      if (!s->token.ShouldStop()) continue;
      keep &= ~(std::uint64_t{1} << l);
      const QueryStatus status = StoppedStatus(s->token);
      Count(status);
      Complete(s, status, {}, "lane stopped mid-wave");
      finished[l] = 1;
    }
    return keep;
  };

  std::optional<BfsBatchResult> bfs_result;
  std::optional<PprBatchResult> ppr_result;
  try {
    // Resolve the reverse graph (spmv-backend PPR waves gather over it)
    // before leasing a workspace, mirroring the solo path: its one-time
    // build is a registry concern, not part of this wave's scratch.
    const graph::Csr* ppr_reverse = nullptr;
    if (!is_bfs && std::get<PprQuery>(wave.front()->request).opts.backend ==
                       core::SpmvBackend::kSpmv) {
      const auto& leader = wave.front();
      ppr_reverse = leader->snapshot
                        ? leader->snapshot->ReverseView(*pool_).get()
                        : &ReverseOf(*leader->graph, *leader->aux);
    }
    WorkspacePool::Lease lease = workspaces_.Acquire();
    RunControl ctl;
    ctl.workspace = &lease.workspace();
    ctl.cancel = nullptr;  // stopping is per-lane, never whole-wave
    ctl.scale_free_hint = wave.front()->scale_free_hint;
    if (is_bfs) {
      const auto& q = std::get<BfsQuery>(wave.front()->request);
      BfsBatchOptions bopts;
      bopts.load_balance = q.opts.load_balance;
      bopts.pool = pool_;
      bopts.direction = q.opts.direction;
      bopts.do_alpha = q.opts.do_alpha;
      bopts.do_beta = q.opts.do_beta;
      // The variant axis maps onto scalar BFS's advance flavors: the
      // idempotent pipeline becomes emit-then-filter, the atomic one the
      // fused claim. Depths are variant-invariant either way.
      bopts.variant = q.opts.idempotent ? BfsBatchVariant::kFiltered
                                        : BfsBatchVariant::kFused;
      bfs_result = BfsBatch(*wave.front()->graph, sources, bopts, ctl,
                            lanes);
    } else {
      const auto& q = std::get<PprQuery>(wave.front()->request);
      PprBatchOptions popts;
      popts.load_balance = q.opts.load_balance;
      popts.pool = pool_;
      popts.damping = q.opts.damping;
      popts.tolerance = q.opts.tolerance;
      popts.max_iterations = q.opts.max_iterations;
      popts.backend = q.opts.backend;
      popts.reverse = ppr_reverse;
      ppr_result = PprBatch(*wave.front()->graph, sources, popts, ctl,
                            lanes);
    }
  } catch (const std::exception& e) {
    for (std::size_t l = 0; l < num_lanes; ++l) {
      if (finished[l]) continue;
      Count(QueryStatus::kFailed);
      Complete(wave[l], QueryStatus::kFailed, {}, e.what());
    }
    return;
  }
  // The lease died with the try scope; de-multiplex per-lane results.
  const std::uint64_t completed = is_bfs ? bfs_result->completed_mask
                                         : ppr_result->completed_mask;
  for (std::size_t l = 0; l < num_lanes; ++l) {
    if (finished[l]) continue;
    if (((completed >> l) & 1) == 0) {
      // Dropped after its completion in the poll callback raced the wave
      // end (or the whole wave emptied): close it out by its token.
      const QueryStatus status = StoppedStatus(wave[l]->token);
      Count(status);
      Complete(wave[l], status, {}, "lane stopped mid-wave");
      continue;
    }
    QueryResult result;
    if (is_bfs) {
      BfsResult r;
      r.depth = std::move(bfs_result->depth[l]);
      r.stats.iterations = bfs_result->lane_iterations[l];
      r.stats.edges_visited = bfs_result->stats.edges_visited;
      r.stats.elapsed_ms = bfs_result->stats.elapsed_ms;
      result = std::move(r);
    } else {
      PprResult r;
      r.rank = std::move(ppr_result->rank[l]);
      r.iterations = ppr_result->iterations[l];
      r.stats.iterations = ppr_result->iterations[l];
      r.stats.edges_visited = ppr_result->stats.edges_visited;
      r.stats.elapsed_ms = ppr_result->stats.elapsed_ms;
      result = std::move(r);
    }
    Count(QueryStatus::kDone);
    Complete(wave[l], QueryStatus::kDone, std::move(result), {});
  }
}

void QueryEngine::Complete(const std::shared_ptr<QueryHandle::State>& state,
                           QueryStatus status, QueryResult result,
                           std::string error) {
  // Claim the one terminal transition (Shutdown and a finishing runner
  // can race here).
  if (state->completed.exchange(true)) return;
  // Release the graph quota before the handle observably completes, so a
  // waiter that saw the terminal state also sees the slot as free.
  if (state->counted) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --state->aux->in_flight;
      if (state->picked) --running_;
    }
    not_full_cv_.notify_all();
  }
  const auto now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->status = status;
    state->response.status = status;
    state->response.result = std::move(result);
    state->response.error = std::move(error);
    const auto started =
        state->started_at.time_since_epoch().count() != 0
            ? state->started_at
            : now;  // never picked up: all wait, no run
    state->response.queue_ms = MsBetween(state->submitted_at, started);
    state->response.run_ms = MsBetween(started, now);
    state->response.total_ms = MsBetween(state->submitted_at, now);
  }
  state->cv.notify_all();
  // Feed the stream last: a consumer popping this completion must find
  // the handle already terminal. Drop the state's back-reference once
  // fed — the queued Completion owns this State, so keeping the State's
  // shared_ptr to Shared would form a reference cycle that leaks any
  // batch abandoned before being fully drained.
  if (auto stream = std::move(state->stream)) {
    {
      std::lock_guard<std::mutex> lock(stream->mutex);
      stream->ready.push_back({state->stream_index, QueryHandle(state)});
    }
    stream->cv.notify_all();
  }
  // Observability last, outside every lock: the observer sees only
  // already-fulfilled queries, and a slow observer can't stall waiters.
  std::shared_ptr<const QueryObserver> observer;
  {
    std::lock_guard<std::mutex> lock(observer_mutex_);
    observer = observer_;
  }
  if (observer) {
    QueryObservation obs;
    obs.kind = KindName(state->request);
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      obs.status = state->response.status;
      obs.queue_ms = state->response.queue_ms;
      obs.run_ms = state->response.run_ms;
      obs.total_ms = state->response.total_ms;
    }
    (*observer)(obs);
  }
}

}  // namespace gunrock::engine
