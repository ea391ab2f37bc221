#include "service_legs.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <utility>

#include "host.hpp"
#include "util/prng.hpp"
#include "util/spin_wait.hpp"

namespace perfbench {
namespace {

namespace svc = imbar::service;

// The call the producer is inside, so storage spans can name it.
thread_local std::uint64_t tls_call_id = 0;
thread_local std::uint64_t tls_call_parent = 0;

/// Completion callback target. Counts are kept per shard: a shard is
/// drained by one worker at a time, so each row has one writer at a
/// time and rows on separate cache lines do not contend.
class Sink {
 public:
  Sink(const Traffic& t, std::size_t shards, bool record_delivery)
      : traffic_(t), rows_(shards) {
    if (record_delivery) delivered_.assign(t.phases, 0);
  }

  void on(const svc::Completion& c) {
    Row& r = rows_[c.group % rows_.size()];
    const bool quorum_group =
        c.group < traffic_.shape.groups &&
        traffic_.quorum_group(static_cast<std::uint32_t>(c.group));
    switch (c.kind) {
      case svc::CompletionKind::kReleased:
        ++r.settled;
        if (!quorum_group) ++r.strict_group_released;
        break;
      case svc::CompletionKind::kQuorum:
      case svc::CompletionKind::kLate:
        ++r.settled;
        if (!quorum_group) ++r.wrong;
        if (c.kind == svc::CompletionKind::kLate) return;
        break;
      default:
        ++r.wrong;
        return;
    }
    if (delivered_.empty()) return;
    if (c.phase >= traffic_.rounds) {
      ++r.wrong;
      return;
    }
    // Release completions of one phase are delivered in one loop by
    // one worker, so the last write is the phase's last delivery.
    delivered_[c.group * traffic_.rounds + c.phase] = now_ns();
  }

  struct Totals {
    std::uint64_t settled = 0;                // released, quorum or late
    std::uint64_t strict_group_released = 0;  // kReleased on strict groups
    std::uint64_t wrong = 0;  // wrong kind for the group, or bad phase
  };
  [[nodiscard]] Totals totals() const {
    Totals t;
    for (const Row& r : rows_) {
      t.settled += r.settled;
      t.strict_group_released += r.strict_group_released;
      t.wrong += r.wrong;
    }
    return t;
  }
  [[nodiscard]] const std::vector<std::int64_t>& delivered() const {
    return delivered_;
  }

 private:
  struct alignas(64) Row {
    std::uint64_t settled = 0, strict_group_released = 0, wrong = 0;
  };
  const Traffic& traffic_;
  std::vector<Row> rows_;
  std::vector<std::int64_t> delivered_;
};

unsigned long long ull(std::uint64_t v) { return v; }

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

/// Arrivals not settled as the script requires, plus one per broken
/// service-level invariant.
std::uint64_t count_failures(const Traffic& t, const Sink::Totals& got,
                             const svc::ServiceCounters& c) {
  std::uint64_t f = absdiff(got.settled, t.ops.size()) +
                    absdiff(got.strict_group_released,
                            t.strict_group_completions) +
                    got.wrong + c.rejected + c.cancelled;
  if (c.releases_strict + c.releases_quorum != t.phases ||
      c.owed_outstanding != 0)
    ++f;
  // Quorum-ledger identity at quiescence (docs/service.md).
  const std::uint64_t released_seats =
      (c.releases_strict + c.releases_quorum) * t.shape.members;
  if (c.completions_strict + c.completions_quorum + c.completions_late +
          c.owed_outstanding !=
      released_seats)
    ++f;
  if (f != 0)
    std::fprintf(stderr,
                 "perfbench: service check failed: settled %llu/%zu, strict "
                 "groups released %llu/%llu, wrong %llu, rejected %llu, "
                 "cancelled %llu, phases %llu+%llu/%llu, owed %llu\n",
                 ull(got.settled), t.ops.size(), ull(got.strict_group_released),
                 ull(t.strict_group_completions), ull(got.wrong),
                 ull(c.rejected), ull(c.cancelled), ull(c.releases_strict),
                 ull(c.releases_quorum), ull(t.phases),
                 ull(c.owed_outstanding));
  return f;
}

bool counters_equal(const svc::ServiceCounters& a,
                    const svc::ServiceCounters& b) {
  return a.groups_created == b.groups_created &&
         a.groups_destroyed == b.groups_destroyed &&
         a.arrivals == b.arrivals &&
         a.completions_strict == b.completions_strict &&
         a.completions_quorum == b.completions_quorum &&
         a.completions_late == b.completions_late &&
         a.cancelled == b.cancelled && a.rejected == b.rejected &&
         a.releases_strict == b.releases_strict &&
         a.releases_quorum == b.releases_quorum &&
         a.slot_grants == b.slot_grants &&
         a.slot_evictions == b.slot_evictions &&
         a.slot_parks == b.slot_parks &&
         a.ready_enqueues == b.ready_enqueues && a.polls == b.polls &&
         a.owed_outstanding == b.owed_outstanding;
}

std::unique_ptr<svc::BarrierService> construct_service(
    const ServiceSetup& s, const JournalStore& store) {
  svc::BarrierService::Options o;
  o.shards = s.shards;
  o.slots = s.slots;
  o.workers = s.workers;
  if (s.journal != Journal::kOff) {
    o.durability.journal = store.journal;
    o.durability.snapshots = store.snapshots;
    o.durability.snapshot_interval = s.snapshot_interval;
    o.durability.flush_every = 1;
  }
  return std::make_unique<svc::BarrierService>(std::move(o));
}

std::unique_ptr<svc::BarrierService> make_service(const ServiceSetup& s,
                                                  const JournalStore& store) {
  const std::vector<int> before =
      s.worker_cpus.empty() ? std::vector<int>{} : thread_ids();
  auto service = construct_service(s, store);
  if (s.worker_cpus.empty()) return service;
  // The threads that appeared are the TaskPool's workers.
  std::size_t next = 0;
  for (const int tid : thread_ids())
    if (!std::binary_search(before.begin(), before.end(), tid))
      pin_thread(tid, s.worker_cpus[next++ % s.worker_cpus.size()]);
  return service;
}

void traced_span(TraceSink* trace, const char* name, std::int64_t t0,
                 std::int64_t t1, std::uint64_t id, std::uint64_t parent) {
  if (trace != nullptr) trace->add(Span{name, 0, t0, t1, id, parent});
}

/// Builds a service and its groups; returns the setup time.
double set_up(const Traffic& t, const ServiceSetup& s,
              const JournalStore& store, Sink& sink, std::uint64_t leg,
              std::unique_ptr<svc::BarrierService>& out) {
  const std::int64_t t0 = now_ns();
  out = make_service(s, store);
  const std::int64_t t1 = now_ns();
  traced_span(s.trace, "service.open", t0, t1, leg, leg);
  for (std::uint32_t g = 0; g < t.shape.groups; ++g) {
    svc::GroupOptions o;
    o.participants = t.shape.members;
    o.group_class = t.quorum_group(g) ? "quorum" : "strict";
    if (t.quorum_group(g)) {
      o.quorum.quorum = t.shape.quorum_k;
      o.quorum.deadline_budget = std::chrono::nanoseconds(0);
    }
    o.on_complete = [&sink](const svc::Completion& c) { sink.on(c); };
    out->create_group(g, std::move(o));
  }
  const std::int64_t t2 = now_ns();
  traced_span(s.trace, "service.create_group", t1, t2, leg, leg);
  out->drain();
  const std::int64_t t3 = now_ns();
  traced_span(s.trace, "service.drain", t2, t3, leg, leg);
  return static_cast<double>(t3 - t0) * 1e-9;
}

/// Submit one op; when `spans` is non-null (traced), time it into
/// `spans` and, when non-null, `submit_ns`.
inline void submit(svc::BarrierService& service, const ArrivalOp& op,
                   std::vector<Span>* spans, std::vector<double>* submit_ns,
                   std::uint64_t leg) {
  if (spans == nullptr) {
    service.arrive(op.group, op.member);
    return;
  }
  tls_call_id = phase_key(op.group, op.round);
  tls_call_parent = leg;
  const std::int64_t t0 = now_ns();
  service.arrive(op.group, op.member);
  const std::int64_t t1 = now_ns();
  if (submit_ns != nullptr) submit_ns->push_back(static_cast<double>(t1 - t0));
  spans->push_back(Span{"service.arrive", 0, t0, t1, tls_call_id, leg});
}

constexpr std::size_t kSpansPerLeg = 20000;

void flush_spans(TraceSink* trace, std::vector<Span>& spans) {
  if (trace == nullptr) return;
  if (spans.size() > kSpansPerLeg) spans.resize(kSpansPerLeg);
  trace->add(spans);
}

}  // namespace

Traffic make_traffic(const TrafficShape& shape, std::uint32_t rounds,
                     std::uint64_t seed) {
  Traffic t;
  t.shape = shape;
  t.rounds = rounds;
  const std::uint32_t n = shape.members;
  t.need.resize(shape.groups);
  t.phases = std::uint64_t{shape.groups} * rounds;
  for (std::uint32_t g = 0; g < shape.groups; ++g) {
    t.need[g] = t.quorum_group(g) ? shape.quorum_k : n;
    if (!t.quorum_group(g)) t.strict_group_completions += std::uint64_t{rounds} * n;
  }
  imbar::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> groups(shape.groups), members(n);
  std::iota(groups.begin(), groups.end(), 0u);
  std::iota(members.begin(), members.end(), 0u);
  t.ops.reserve(static_cast<std::size_t>(shape.groups) * n * rounds);
  if (!shape.interleave) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      std::shuffle(groups.begin(), groups.end(), rng);
      for (const std::uint32_t g : groups)
        for (const std::uint32_t m : members) t.ops.push_back({g, m, r});
    }
    return t;
  }
  // Each round, groups open in a seeded order across the first half of
  // the round and each member lands within a tenth of a round of its
  // group's opening: roughly a fifth of all groups have a phase open at
  // once, so phases queue for slots. Keys of round r stay inside
  // [r, r + 0.6), so one group's rounds never overlap.
  std::vector<std::pair<double, ArrivalOp>> keyed;
  keyed.reserve(t.ops.capacity());
  const double span = 0.5 / static_cast<double>(shape.groups);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    std::shuffle(groups.begin(), groups.end(), rng);
    for (std::uint32_t pos = 0; pos < shape.groups; ++pos)
      for (const std::uint32_t m : members)
        keyed.push_back({r + pos * span + 0.1 * rng.uniform(),
                         ArrivalOp{groups[pos], m, r}});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, op] : keyed) t.ops.push_back(op);
  return t;
}

TimedStorage::TimedStorage(std::shared_ptr<svc::StorageBackend> inner,
                           TraceSink* trace)
    : inner_(std::move(inner)), trace_(trace) {}

void TimedStorage::append(std::string_view bytes) {
  appends_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (trace_ == nullptr) {
    inner_->append(bytes);
    return;
  }
  const std::int64_t t0 = now_ns();
  inner_->append(bytes);
  const std::int64_t t1 = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() < kSpansPerLeg)
    spans_.push_back(
        Span{"storage.append", 0, t0, t1, tls_call_id, tls_call_parent});
}

void TimedStorage::flush() {
  flushes_.fetch_add(1, std::memory_order_relaxed);
  if (trace_ == nullptr) {
    inner_->flush();
    return;
  }
  const std::int64_t t0 = now_ns();
  inner_->flush();
  const std::int64_t t1 = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  flush_ns_.push_back(static_cast<double>(t1 - t0));
  if (spans_.size() < kSpansPerLeg)
    spans_.push_back(
        Span{"storage.flush", 0, t0, t1, tls_call_id, tls_call_parent});
}

void TimedStorage::publish_spans() {
  std::lock_guard<std::mutex> lk(mu_);
  if (trace_ != nullptr) trace_->add(spans_);
  spans_.clear();
}

std::vector<double> TimedStorage::flush_ns() const {
  std::lock_guard<std::mutex> lk(mu_);
  return flush_ns_;
}

TimedSnapshots::TimedSnapshots(std::shared_ptr<svc::SnapshotStore> inner,
                               TraceSink* trace)
    : inner_(std::move(inner)), trace_(trace) {}

void TimedSnapshots::save(std::size_t shard, const std::string& blob) {
  if (trace_ == nullptr) {
    inner_->save(shard, blob);
    return;
  }
  const std::int64_t t0 = now_ns();
  inner_->save(shard, blob);
  const std::int64_t t1 = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  save_ns_.push_back(static_cast<double>(t1 - t0));
  if (spans_.size() < kSpansPerLeg)
    spans_.push_back(Span{"storage.snapshot_save", 0, t0, t1, tls_call_id,
                          tls_call_parent});
}

void TimedSnapshots::publish_spans() {
  std::lock_guard<std::mutex> lk(mu_);
  if (trace_ != nullptr) trace_->add(spans_);
  spans_.clear();
}

std::vector<double> TimedSnapshots::save_ns() const {
  std::lock_guard<std::mutex> lk(mu_);
  return save_ns_;
}

JournalStore open_journal_store(const ServiceSetup& setup) {
  JournalStore js;
  if (setup.journal == Journal::kOff) return js;
  if (setup.journal == Journal::kFile) {
    std::filesystem::create_directories(setup.dir);
    js.journal = std::make_shared<TimedStorage>(
        std::make_shared<svc::FileBackend>(setup.dir + "/journal.log"),
        setup.trace);
  } else {
    js.journal = std::make_shared<TimedStorage>(
        std::make_shared<svc::FaultyMemBackend>(), setup.trace);
  }
  js.snapshots = std::make_shared<TimedSnapshots>(
      std::make_shared<svc::MemSnapshotStore>(), setup.trace);
  return js;
}

BurstResult run_burst(const Traffic& traffic, const ServiceSetup& setup,
                      const JournalStore& store) {
  BurstResult r;
  const ScopedAffinity producer(setup.producer_cpus);
  const std::uint64_t leg = setup.trace ? setup.trace->next_id() : 0;
  Sink sink(traffic, setup.shards, false);
  std::unique_ptr<svc::BarrierService> service;
  r.setup_s = set_up(traffic, setup, store, sink, leg, service);

  std::vector<Span> spans;
  std::vector<Span>* span_out = setup.trace ? &spans : nullptr;
  if (span_out != nullptr) {
    spans.reserve(traffic.ops.size());
    r.submit_ns.reserve(traffic.ops.size());
  }
  const imbar::exec::TaskPoolMetrics before = service->pool().metrics();
  const std::int64_t t0 = now_ns();
  for (const ArrivalOp& op : traffic.ops)
    submit(*service, op, span_out, &r.submit_ns, leg);
  const std::int64_t t1 = now_ns();
  service->drain();
  const std::int64_t t2 = now_ns();
  const imbar::exec::TaskPoolMetrics after = service->pool().metrics();

  traced_span(setup.trace, "service.drain", t1, t2, leg, leg);
  flush_spans(setup.trace, spans);
  r.arrivals_per_s =
      static_cast<double>(traffic.ops.size()) / (static_cast<double>(t2 - t0) * 1e-9);
  r.drain_wait_s = static_cast<double>(t2 - t1) * 1e-9;
  std::uint64_t busy = 0;
  for (std::size_t w = 0; w < after.busy_ns_per_worker.size(); ++w)
    busy += after.busy_ns_per_worker[w] - before.busy_ns_per_worker[w];
  r.busy_ratio = static_cast<double>(busy) /
                 (static_cast<double>(t2 - t0) *
                  static_cast<double>(after.busy_ns_per_worker.size()));
  r.check.attempted = traffic.ops.size();
  r.check.counters = service->counters();
  r.check.failed = count_failures(traffic, sink.totals(), r.check.counters);
  return r;
}

OpenLoopResult run_open_loop(const Traffic& traffic, double rate_per_s,
                             const ServiceSetup& setup,
                             const JournalStore& store) {
  OpenLoopResult r;
  const ScopedAffinity producer(setup.producer_cpus);
  const std::uint64_t leg = setup.trace ? setup.trace->next_id() : 0;
  Sink sink(traffic, setup.shards, true);
  std::unique_ptr<svc::BarrierService> service;
  r.setup_s = set_up(traffic, setup, store, sink, leg, service);
  const std::vector<std::uint32_t> triggers = release_triggers(
      traffic.ops, traffic.shape.groups, traffic.rounds, traffic.need);

  std::vector<Span> spans;
  std::vector<Span>* span_out = setup.trace ? &spans : nullptr;
  if (span_out != nullptr) spans.reserve(traffic.ops.size());
  r.lateness_ns.resize(traffic.ops.size());
  const double period_ns = 1e9 / rate_per_s;
  const std::int64_t start = now_ns() + 1000000;  // 1 ms lead-in
  for (std::size_t i = 0; i < traffic.ops.size(); ++i) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    std::int64_t now = now_ns();
    while (now < due) {
      imbar::cpu_relax();
      now = now_ns();
    }
    r.lateness_ns[i] = static_cast<double>(now - due);
    submit(*service, traffic.ops[i], span_out, nullptr, leg);
  }
  service->drain();
  flush_spans(setup.trace, spans);

  LatencyResult lat =
      release_latencies(start, period_ns, triggers, sink.delivered());
  r.release_ns = std::move(lat.latency_ns);
  r.check.attempted = traffic.ops.size();
  r.check.counters = service->counters();
  r.check.failed = count_failures(traffic, sink.totals(), r.check.counters) +
                   lat.missing + lat.negative;
  return r;
}

RecoverResult run_recover(const ServiceSetup& setup, const JournalStore& store,
                          const svc::ServiceCounters& before) {
  RecoverResult r;
  const ScopedAffinity producer(setup.producer_cpus);
  const std::uint64_t leg = setup.trace ? setup.trace->next_id() : 0;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<svc::BarrierService> service = make_service(setup, store);
  const std::int64_t t1 = now_ns();
  r.report = service->recover();
  const std::int64_t t2 = now_ns();
  traced_span(setup.trace, "service.open", t0, t1, leg, leg);
  traced_span(setup.trace, "service.recover", t1, t2, leg, leg);
  r.recover_s = static_cast<double>(t2 - t0) * 1e-9;
  if (!counters_equal(service->counters(), before)) r.failed = 1;
  return r;
}

}  // namespace perfbench
