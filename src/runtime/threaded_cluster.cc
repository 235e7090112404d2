#include "src/runtime/threaded_cluster.h"

#include <utility>

#include "src/util/pace.h"

namespace grouting {

// The one place injected wire time is charged. Service() runs a multiget
// against the storage tier at once and stamps its reply to land one modelled
// round trip after the service ends (2 x the one-way delay plus the per-KB
// term on the reply's wire bytes, so a compressed encoding genuinely shortens
// the trip) — service plus round trip, as the simulator composes a fetch. The
// issuing processor's Wait() holds the reply until then, so every trip is
// spent inside the level that issued it. With a queue (a window > 1)
// Submit hands the handle to the processor's fetch thread, so up to `window`
// trips ripen while the processor keeps probing its cache. Without one
// (window 1) the processor services it itself: it would only wait out the
// trip anyway, and a thread hand-off would add two wakeups per batch. A
// closed queue (shutdown) also services inline, so no waiter is stranded.
class WireFetchExecutor : public BatchFetchExecutor {
 public:
  WireFetchExecutor(const NetworkProfile& wire,
                    MpmcQueue<std::shared_ptr<MultiGetHandle>>* queue)
      : wire_(wire), queue_(queue) {}

  void Submit(std::shared_ptr<MultiGetHandle> handle) override {
    if (queue_ == nullptr || !queue_->Push(handle)) {
      Service(*handle);
    }
  }

  void Service(MultiGetHandle& handle) const {
    handle.ExecuteOnly();
    handle.MarkDone(std::chrono::steady_clock::now() +
                    std::chrono::nanoseconds(static_cast<int64_t>(
                        wire_.RoundTripUs(handle.payload_bytes()) * 1000.0)));
  }

 private:
  NetworkProfile wire_;
  MpmcQueue<std::shared_ptr<MultiGetHandle>>* queue_;
};

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

ThreadedCluster::ThreadedCluster(const Graph& graph, const ClusterConfig& config,
                                 std::unique_ptr<RoutingStrategy> strategy,
                                 const PartitionAssignment* placement)
    : ClusterEngine(graph, config, placement),
      splitter_(config.router_splitter, config.num_router_shards,
                config.router_session_capacity) {
  for (auto& shard_strategy :
       CloneStrategyPerShard(std::move(strategy), config_.num_router_shards)) {
    shards_.push_back(std::make_unique<RouterShard>());
    shards_.back()->strategy = std::move(shard_strategy);
  }
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    channels_.push_back(std::make_unique<MpmcQueue<Routed>>());
  }
  for (uint32_t s = 0; s < config_.num_router_shards; ++s) {
    arrival_channels_.push_back(std::make_unique<MpmcQueue<Query>>());
  }
  // Each processor gets a wire executor whenever there is a window of
  // batches to overlap or injected wire time to charge; with a window its
  // batches go through a queue to its own fetch thread. With neither, the
  // processor services its multigets inline — the simulator's only path.
  const bool window = config_.processor.max_inflight_batches > 1;
  if (window || config_.injected_network_us > 0.0) {
    // Gated like the one-way term: injected_network_us == 0 keeps the
    // engine at memory speed.
    const NetworkProfile wire{
        .name = "injected",
        .one_way_us = config_.injected_network_us,
        .per_kb_us =
            config_.injected_network_us > 0.0 ? config_.cost.net.per_kb_us : 0.0};
    for (uint32_t p = 0; p < config_.num_processors; ++p) {
      if (window) {
        fetch_queues_.push_back(
            std::make_unique<MpmcQueue<std::shared_ptr<MultiGetHandle>>>());
      }
      fetch_executors_.push_back(std::make_unique<WireFetchExecutor>(
          wire, window ? fetch_queues_.back().get() : nullptr));
    }
  }
  samples_.resize(config_.num_processors);
  for (auto& s : samples_) {
    s.tenant_response_us.resize(config_.num_tenants);
    s.tenant_queries.assign(config_.num_tenants, 0);
  }
}

ThreadedCluster::~ThreadedCluster() {
  shutdown_.store(true, std::memory_order_release);
  gossip_stop_.store(true, std::memory_order_release);
  for (auto& ch : arrival_channels_) {
    ch->Close();
  }
  for (auto& ch : channels_) {
    ch->Close();
  }
  // Closing the fetch queues before joining the processors is what keeps
  // shutdown deadlock-free: queued handles are still drained (and completed)
  // by their fetch thread, and submissions after the close run inline.
  for (auto& q : fetch_queues_) {
    q->Close();
  }
  if (feeder_thread_.joinable()) {
    feeder_thread_.join();
  }
  if (writer_thread_.joinable()) {
    writer_thread_.join();
  }
  for (auto& t : router_threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  if (gossip_thread_.joinable()) {
    gossip_thread_.join();
  }
  for (auto& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  for (auto& t : fetch_threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

bool ThreadedCluster::StealInto(uint32_t thief, Routed* out) {
  // Scan for the longest sibling channel; take its oldest pending query.
  // (The DES router steals the newest; with MPMC channels the oldest is the
  // lock-free-friendly end. The balance property is identical.)
  uint32_t victim = thief;
  size_t longest = 0;
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    if (p == thief) {
      continue;
    }
    const size_t len = channels_[p]->Size();
    if (len > longest) {
      longest = len;
      victim = p;
    }
  }
  if (victim == thief) {
    return false;
  }
  auto stolen = channels_[victim]->TryPop();
  if (!stolen.has_value()) {
    return false;
  }
  *out = *stolen;
  steals_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ThreadedCluster::FeederLoop(std::span<const Query> queries,
                                 Clock::time_point epoch) {
  // The splitter is sequential state, so one thread walks the arrival stream
  // in order and hands each admitted query to its CURRENT shard: static
  // splitters make the same cut, in the same order, as the simulator's
  // fleet, and between any two arrivals the gossip tick may migrate adaptive
  // sessions under the same mutex, changing where the NEXT arrival of a
  // session goes. Each arrival is paced to its schedule time
  // (ArrivalTimeUs: the open-loop arrive_us, or i x arrival_gap_us) from the
  // run epoch — the wall-clock counterpart of the simulator's virtual-time
  // arrival events; an unpaced schedule is all at time 0. Shed arrivals are
  // paced but never handed to a shard — admission happens here, and the
  // schedule's timing is unaffected.
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (shutdown_.load(std::memory_order_acquire)) {
      break;
    }
    PaceUntil(epoch + std::chrono::nanoseconds(
                          static_cast<int64_t>(ArrivalTimeUs(q, i) * 1000.0)));
    if (!admission_plan_.Admitted(i)) {
      continue;
    }
    uint32_t shard;
    {
      std::lock_guard<std::mutex> lock(splitter_mu_);
      shard = splitter_.ShardFor(q);
    }
    arrival_channels_[shard]->Push(q);
  }
  for (auto& ch : arrival_channels_) {
    ch->Close();  // shard threads drain what remains, then exit
  }
}

void ThreadedCluster::RouterShardLoop(uint32_t shard) {
  RouterShard& rs = *shards_[shard];
  WallTracer* tracer = shard_tracers_.empty() ? nullptr : &shard_tracers_[shard];
  std::vector<uint32_t> lengths(config_.num_processors, 0);
  RouterContext ctx;
  ctx.num_processors = config_.num_processors;
  while (auto arrival = arrival_channels_[shard]->Pop()) {
    const Query& q = *arrival;
    const bool traced = tracer != nullptr && tracer->Sample(q.id);
    if (traced) {
      tracer->Instant(TraceEventType::kArrival, tracer->NowUs(), q.id, shard);
    }
    // Live channel lengths are the shared load signal: unlike the simulated
    // shards (which see only their own queues between gossip rounds), real
    // shards share the processor channels and read their depth directly.
    for (uint32_t p = 0; p < config_.num_processors; ++p) {
      lengths[p] = static_cast<uint32_t>(channels_[p]->Size());
    }
    ctx.queue_lengths = lengths;
    uint32_t target;
    {
      std::lock_guard<std::mutex> lock(rs.mu);
      target = rs.strategy->Route(q.node, ctx);
    }
    GROUTING_CHECK(target < config_.num_processors);
    rs.routed.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
      tracer->Instant(TraceEventType::kRouted, tracer->NowUs(), q.id, target);
    }
    channels_[target]->Push(Routed{q, Clock::now(), shard, target});
  }
}

void ThreadedCluster::WriterLoop(Clock::time_point epoch) {
  for (const GraphMutation& m : mutation_schedule()) {
    if (m.apply_us <= 0.0) {
      continue;  // applied quiesced in Run(), before any thread spawned
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      break;  // destructor teardown mid-run: abandon the schedule
    }
    // Paced to the entry's offset from the run epoch, like the arrivals.
    // Once the run has drained (remaining_ == 0) the spin is cut short and
    // later entries are not paced — the tail of the schedule applies back to
    // back so both engines still apply every entry.
    const auto running = [this] {
      return remaining_.load(std::memory_order_acquire) > 0;
    };
    if (running()) {
      PaceUntil(epoch + std::chrono::nanoseconds(
                            static_cast<int64_t>(m.apply_us * 1000.0)),
                running);
    }
    ApplyOneMutation(m);
  }
}

std::vector<std::unique_lock<std::mutex>> ThreadedCluster::LockAllShards() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  return locks;
}

void ThreadedCluster::GossipLoop(Clock::time_point epoch) {
  // Rounded up, so that a positive period is never zero clock ticks.
  const auto period = std::chrono::ceil<Clock::duration>(
      std::chrono::duration<double, std::micro>(config_.gossip_period_us));
  std::vector<RoutingStrategy*> strategies;
  std::vector<uint64_t> routed(shards_.size(), 0);
  strategies.reserve(shards_.size());
  for (auto& shard : shards_) {
    strategies.push_back(shard->strategy.get());
  }
  // Runs until Run() has collected the last answer, like the simulator's
  // GossipTick chain, in the same order: router round, storage round, index
  // maintenance. Tick k is due at epoch + k * period, as in the simulator;
  // slots that pass while a tick overruns are skipped. (PaceUntil would spin
  // through a whole short period.)
  for (int64_t tick = 1; !gossip_stop_.load(std::memory_order_acquire); ++tick) {
    tick = std::max<int64_t>(tick, (Clock::now() - epoch) / period + 1);
    std::this_thread::sleep_until(epoch + tick * period);
    if (gossip_stop_.load(std::memory_order_acquire)) {
      break;
    }
    {
      // The router round, with every shard mutex held: the blend and the
      // migrated sessions' strategy-state carry touch every shard's
      // strategy, and the splitter mutex stalls the feeder while sessions
      // move.
      const auto locks = LockAllShards();
      GossipBlendRound(strategies, &gossip_stats_);
      for (size_t s = 0; s < shards_.size(); ++s) {
        routed[s] = shards_[s]->routed.load(std::memory_order_relaxed);
      }
      const std::lock_guard<std::mutex> splitter_lock(splitter_mu_);
      GossipRebalanceRound(&splitter_, routed, config_.router_rebalance, strategies);
    }
    // The storage round plans against the monitor's decayed rates and
    // physically migrates partitions while processor / fetch threads keep
    // serving — MigratePartition's copy-flip-drain-delete order plus the
    // processor-side miss re-resolution keep every answer exactly-once. The
    // stall metric is the tick's wall time spent moving data.
    const auto mig_start = Clock::now();
    if (!RepartitionRound().empty()) {
      repartition_stall_us_ += ElapsedUs(mig_start, Clock::now());
    }
    if (config_.enable_mutations) {
      // The maintainer may touch routing-strategy index state (landmark
      // distances, embedding coordinates), so the pass runs with every shard
      // mutex held — race-free against Route() on the shard threads.
      const auto locks = LockAllShards();
      RunIndexMaintenance(ElapsedUs(epoch, Clock::now()));
    }
  }
}

void ThreadedCluster::FetchLoop(uint32_t p) {
  // The fetch thread plays the remote server for its processor's window:
  // each multiget is serviced as soon as it is popped, so a batch submitted
  // while earlier ones are still on the wire starts its own trip at once.
  // Completion order is FIFO, which matches the processor's oldest-first
  // Wait() order.
  while (auto request = fetch_queues_[p]->Pop()) {
    fetch_executors_[p]->Service(**request);
  }
}

void ThreadedCluster::ProcessorLoop(uint32_t p) {
  LatencySamples& samples = samples_[p];
  WallTracer* tracer = proc_tracers_.empty() ? nullptr : &proc_tracers_[p];
  while (!shutdown_.load(std::memory_order_acquire) &&
         remaining_.load(std::memory_order_acquire) > 0) {
    Routed routed;
    auto own = channels_[p]->TryPop();
    if (own.has_value()) {
      routed = *own;
    } else if (!config_.enable_stealing || !StealInto(p, &routed)) {
      std::this_thread::yield();
      continue;
    }
    const auto dispatched = Clock::now();
    samples.queue_wait_us.Add(ElapsedUs(routed.routed_at, dispatched));
    if (tracer != nullptr && tracer->BeginQuery(routed.query.id)) {
      tracer->Span(TraceEventType::kQueueWait, tracer->AtUs(routed.routed_at),
                   tracer->AtUs(dispatched), 0, 0, routed.shard);
    }
    {
      // Dispatch feedback to the shard that routed this query: on a steal
      // (p != routed.target) the strategy learns the thief's cache is the
      // one actually being warmed. The hook fires for EVERY dispatch (the
      // contract tests/frontend_test.cc pins down); the mostly-uncontended
      // lock is nanoseconds against the microseconds each query costs.
      RouterShard& rs = *shards_[routed.shard];
      std::lock_guard<std::mutex> lock(rs.mu);
      rs.strategy->OnDispatch(routed.query.node, p, routed.target);
    }
    QueryResult result = processors_[p]->Execute(routed.query);
    const auto completed = Clock::now();
    const double response_us = ElapsedUs(dispatched, completed);
    samples.response_us.Add(response_us);
    samples.tenant_response_us[routed.query.tenant].Add(response_us);
    ++samples.tenant_queries[routed.query.tenant];
    if (tracer != nullptr && tracer->active()) {
      tracer->Span(TraceEventType::kQuery, tracer->AtUs(dispatched),
                   tracer->AtUs(completed), 0, 0,
                   processors_[p]->last_trace().level_stats.size());
      tracer->EndQuery();
    }
    completions_.Push(AnsweredQuery{routed.query.id, p, result});
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

ClusterMetrics ThreadedCluster::Run(std::span<const Query> queries) {
  GROUTING_CHECK_MSG(!ran_, "ThreadedCluster::Run may only be called once");
  ran_ = true;

  // Per-tenant admission decisions, computed from the schedule's own
  // timestamps before any thread spawns — identical to the simulated
  // engine's plan for the same schedule, so both engines shed the same
  // arrivals. Only admitted queries count towards run completion.
  admission_plan_ = PlanAdmission(queries);
  answers_.reserve(admission_plan_.admitted);
  remaining_.store(admission_plan_.admitted, std::memory_order_release);

  // Quiesced mutation entries (apply_us <= 0) land now, before any worker
  // thread exists — the deterministic mode the cross-engine parity tests
  // run in. Timed entries are paced by the writer thread below.
  ApplyQuiescedMutations();

  const uint32_t num_shards = static_cast<uint32_t>(shards_.size());

  const auto start = Clock::now();
  if (tracer_ != nullptr) {
    // One tracer per thread-owned ring, all sharing the run epoch. Built
    // before ANY worker spawns so the vectors never reallocate while a
    // thread holds a pointer into them.
    proc_tracers_.reserve(config_.num_processors);
    shard_tracers_.reserve(num_shards);
    for (uint32_t p = 0; p < config_.num_processors; ++p) {
      proc_tracers_.emplace_back(&tracer_->processor_ring(p), p,
                                 tracer_->sample_every_n(), start);
      processors_[p]->set_tracer(&proc_tracers_[p]);
    }
    for (uint32_t s = 0; s < num_shards; ++s) {
      shard_tracers_.emplace_back(&tracer_->shard_ring(s),
                                  tracer_->num_processors() + s,
                                  tracer_->sample_every_n(), start);
    }
  }
  // Fetch threads first, and only then the executor seam: a processor must
  // never submit a handle nobody will service.
  fetch_threads_.reserve(fetch_queues_.size());
  for (uint32_t p = 0; p < fetch_queues_.size(); ++p) {
    fetch_threads_.emplace_back([this, p] { FetchLoop(p); });
  }
  for (uint32_t p = 0; p < fetch_executors_.size(); ++p) {
    processors_[p]->set_fetch_executor(fetch_executors_[p].get());
  }
  threads_.reserve(config_.num_processors);
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    threads_.emplace_back([this, p] { ProcessorLoop(p); });
  }
  router_threads_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    router_threads_.emplace_back([this, s] { RouterShardLoop(s); });
  }
  feeder_thread_ = std::thread([this, queries, start] { FeederLoop(queries, start); });
  if (config_.enable_mutations && !mutation_schedule().empty()) {
    writer_thread_ = std::thread([this, start] { WriterLoop(start); });
  }
  if (control_tick_enabled()) {
    gossip_thread_ = std::thread([this, start] { GossipLoop(start); });
  }

  // Wait for completion, collecting answers as they arrive. Shed arrivals
  // never produce an answer, so completion is the admitted count.
  while (answers_.size() < admission_plan_.admitted) {
    auto a = completions_.Pop();
    if (!a.has_value()) {
      break;
    }
    answers_.push_back(*a);
  }
  const auto end = Clock::now();

  if (feeder_thread_.joinable()) {
    feeder_thread_.join();
  }
  if (writer_thread_.joinable()) {
    // The writer applies its remaining entries unpaced once the run has
    // drained (remaining_ == 0 above), so this join waits at most for the
    // coarse sleep of the entry in flight, and every schedule entry has been
    // applied exactly once.
    writer_thread_.join();
  }
  for (auto& t : router_threads_) {
    t.join();
  }
  router_threads_.clear();
  gossip_stop_.store(true, std::memory_order_release);
  if (gossip_thread_.joinable()) {
    gossip_thread_.join();
  }
  shutdown_.store(true, std::memory_order_release);
  for (auto& t : threads_) {
    t.join();
  }
  threads_.clear();
  for (auto& q : fetch_queues_) {
    q->Close();
  }
  for (auto& t : fetch_threads_) {
    t.join();
  }
  fetch_threads_.clear();

  ClusterMetrics m;
  m.queries = answers_.size();
  m.makespan_us = ElapsedUs(start, end);
  m.throughput_qps =
      m.makespan_us > 0.0 ? static_cast<double>(m.queries) / (m.makespan_us / 1e6) : 0.0;
  LatencyHistogram response_us;
  RunningStat queue_wait_us;
  std::vector<LatencyHistogram> tenant_response_us(config_.num_tenants);
  std::vector<uint64_t> tenant_queries(config_.num_tenants, 0);
  m.queries_per_processor.assign(config_.num_processors, 0);
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    response_us.Merge(samples_[p].response_us);
    queue_wait_us.Merge(samples_[p].queue_wait_us);
    for (uint32_t t = 0; t < config_.num_tenants; ++t) {
      tenant_response_us[t].Merge(samples_[p].tenant_response_us[t]);
      tenant_queries[t] += samples_[p].tenant_queries[t];
    }
    m.queries_per_processor[p] = processors_[p]->stats().queries_executed;
  }
  FillLatencyStats(&m, response_us, queue_wait_us);
  AddProcessorStats(&m);
  AddTraceStats(&m);
  m.steals = steals_.load(std::memory_order_relaxed);
  m.queries_per_router_shard.assign(num_shards, 0);
  std::vector<const RoutingStrategy*> views;
  views.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    m.queries_per_router_shard[s] = shards_[s]->routed.load(std::memory_order_relaxed);
    views.push_back(shards_[s]->strategy.get());
  }
  m.gossip_rounds = gossip_stats_.rounds;
  m.router_ema_divergence = CrossShardStateDivergence(views);
  m.sessions_migrated = splitter_.stats().migrations;
  m.sticky_evictions = splitter_.stats().evictions;
  m.router_load_imbalance = MaxMinLoadRatio(m.queries_per_router_shard);
  AddStorageTierStats(&m);
  m.repartition_stall_us = repartition_stall_us_;
  AddMutationStats(&m);
  FillTenantMetrics(&m, tenant_response_us, tenant_queries, admission_plan_);
  return m;
}

}  // namespace grouting
