// perfbench: one benchmark for imbar's layers, from the raw barrier
// through the decorators to the service, its journal and storage.
//
//   perfbench --workload=<balanced|imbalanced|durable> --seed=<n>
//             --seconds=<s> --trace=<0|1> [--work-dir=<dir>]
//
// Every number is taken from outside, by timing calls into each
// layer's public entry points. The last stdout line is the result:
// {"correct", "attempted", "failed", "metrics"}, with the end-to-end
// metrics when --trace=0 and the per-layer metrics when --trace=1. The
// line before it carries the host fingerprint, sample counts and each
// leg's compact share; a run in which a leg ran mostly on a split
// placement exits 3 without a result.
// perfbench/README.md maps every metric to its layer and workload.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "dist/samplers.hpp"
#include "host.hpp"
#include "model/analytic.hpp"
#include "service_legs.hpp"
#include "simbarrier/sweep.hpp"
#include "stacks.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

/// Open-loop offered rate, the same on every workload; stated in each
/// workload's entry of BENCHMARK.json.
constexpr double kOpenLoopRate = 100000.0;  // arrivals/s
constexpr std::uint32_t kGroups = 2048;
constexpr std::uint32_t kMembers = 8;
constexpr std::uint64_t kSnapshotInterval = 1024;  // ops per shard
constexpr double kWorkMeanUs = 20.0;
constexpr double kWorkSdUs = 5.0;
constexpr std::size_t kWorkTable = 1 << 16;
constexpr std::size_t kMaxRepEpisodes = 150000;
constexpr std::size_t kTraceEpisodesPerRep = 500;
constexpr int kRecoverRepsPerRound = 2;
constexpr int kRounds = 10;
/// steady_clock on the KVM guest this was tuned on advances in 10 ns
/// steps; medians are interpolated inside bins this wide.
constexpr double kClockGridNs = 10.0;
/// A placement whose slowest transfer exceeds this multiple of the
/// fastest pair seen spans cache domains (about 20 ns inside one
/// domain, 170 ns across, on the 4-vCPU EPYC guest this was tuned on).
constexpr double kSplitFactor = 3.0;
/// Waiting for a compact placement may add at most this share of
/// --seconds to a pass.
constexpr double kWaitBudget = 0.75;
/// A pass in which any leg ran fewer than this share of its reps inside
/// one cache domain is unusable: it reports no metrics.
constexpr double kMinCompactShare = 0.5;

struct Workload {
  std::string name;
  bool imbalanced = false;  // barrier work ~ N(20 us, 5 us), one thread +1 sd
  TrafficShape traffic;
  Journal journal = Journal::kOff;
  std::uint32_t burst_rounds = 8;
};

Workload workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  w.traffic.groups = kGroups;
  w.traffic.members = kMembers;
  if (name == "balanced") return w;
  if (name != "imbalanced" && name != "durable")
    throw std::invalid_argument("unknown workload: " + name);
  w.imbalanced = true;
  w.traffic.quorum_every = 4;
  w.traffic.quorum_k = 6;
  w.traffic.interleave = true;
  if (name == "durable") {
    w.journal = Journal::kFile;
    w.burst_rounds = 2;  // every arrival also writes the journal file
  }
  return w;
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

struct StackStats {
  double episodes_per_s = 0.0;
  double p50_us = 0.0, p99_us = 0.0, max_us = 0.0;
  double first_p50_us = 0.0, spread_p50_us = 0.0;
  double sigma_ns = 0.0;
  std::size_t samples = 0;
  std::vector<double> delay_ns;  // pooled, sorted
};

/// Everything one pass measures.
struct Pass {
  double setup_s = 0.0;
  std::array<StackStats, kStackCount> stacks;
  StackCounters counters_before, counters_after;
  double arrivals_per_s = 0.0;
  double recover_s = 0.0;
  // Per-layer (meaningful in the traced pass).
  double release_p50_us = 0.0, release_p99_us = 0.0;
  std::size_t release_samples = 0;
  double submit_ns_p50 = 0.0, drain_wait_s = 0.0, busy_ratio = 0.0;
  double gen_lateness_p99_us = 0.0;
  imbar::service::ServiceCounters burst_counters{};
  std::uint64_t append_calls = 0, flush_calls = 0;
  double flush_ns_p50 = 0.0, bytes_per_arrival = 0.0;
  double snapshot_save_ns_p50 = 0.0;
  imbar::service::RecoveryReport recovery;
  std::uint64_t attempted = 0, failed = 0;
  bool pinned = true;
  // Cohort placement (see Bench::place).
  double placement_wait_s = 0.0;
  std::uint64_t redone_reps = 0;  // host split the CPUs mid-rep
  std::uint64_t split_reps = 0;   // wait budget spent: ran split
  /// Per leg: share of its reps that ran inside one cache domain.
  std::vector<std::pair<std::string, double>> compact_share;
  double reference_ns = 0.0;      // median of reference_ns() per round

  [[nodiscard]] double min_compact_share() const {
    double m = 1.0;
    for (const auto& [leg, share] : compact_share) m = std::min(m, share);
    return m;
  }
  [[nodiscard]] bool usable() const {
    return min_compact_share() >= kMinCompactShare;
  }
};

/// ns per step of a fixed dependent multiply-add chain on one core: a
/// core-speed reference, reported so runs on differently loaded hosts
/// can be told apart. It sees core speed only, not cache or memory
/// contention.
double reference_ns() {
  constexpr std::uint64_t kSteps = 2000000;
  volatile std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
  std::uint64_t x = seed;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kSteps; ++i) x = x * 6364136223846793005ULL + i;
  const std::int64_t t1 = now_ns();
  seed = x;
  return static_cast<double>(t1 - t0) / static_cast<double>(kSteps);
}

/// One leg's samples. Only reps that ran inside one cache domain are
/// kept; reps on a split placement are checked and counted, not kept.
struct Sampled {
  std::vector<double> values;
  std::size_t reps = 0, compact_reps = 0;
  void add(bool in_domain, double v) { add(in_domain, std::vector<double>{v}); }
  void add(bool in_domain, const std::vector<double>& v) {
    ++reps;
    if (!in_domain) return;
    ++compact_reps;
    values.insert(values.end(), v.begin(), v.end());
  }
};

double share(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Sums one stack's compact reps into its end-to-end and per-layer
/// numbers.
struct StackAcc {
  double episodes = 0.0, seconds = 0.0;
  std::vector<double> delays, firsts, spreads, sigmas;
  std::size_t reps = 0, compact_reps = 0;
};

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, std::string tmp_dir)
      : w_(std::move(w)), seed_(seed), tmp_(std::move(tmp_dir)),
        allowed_(allowed_cpus()) {
    if (allowed_.empty()) throw std::runtime_error("no usable CPU");
    threads_ = std::max<std::size_t>(2, allowed_.size() - 1);
    if (w_.imbalanced) {
      for (std::size_t t = 0; t < threads_; ++t) {
        imbar::Xoshiro256 rng = imbar::Xoshiro256::substream(seed_, t);
        const double mean =
            kWorkMeanUs + (t + 1 == threads_ ? kWorkSdUs : 0.0);
        imbar::NormalSampler draw(mean * 1000.0, kWorkSdUs * 1000.0);
        std::vector<std::int64_t> row(kWorkTable);
        for (auto& x : row)
          x = static_cast<std::int64_t>(std::max(0.0, draw.sample(rng)));
        cohort_.work_ns.push_back(std::move(row));
      }
    }
    burst_traffic_ = make_traffic(w_.traffic, w_.burst_rounds, seed_ ^ 0xB0B5);
  }

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// One measurement pass of `seconds`, spans to `trace` when set. The
  /// pass runs kRounds rounds; each round runs one rep of every stack,
  /// service bursts and an open-loop chunk, so every leg samples the
  /// whole pass rather than one stretch of it.
  Pass run(double seconds, TraceSink* trace) {
    Pass p;
    trace_ = trace;
    const double t_start = wall_s();
    const double round_s = seconds / kRounds;
    wait_budget_s_ = kWaitBudget * seconds;

    // Inputs first: the open-loop chunks' scripts.
    const auto chunk_rounds = static_cast<std::uint32_t>(std::max(
        1.0, std::round(kOpenLoopRate * 0.2 * round_s /
                        (w_.traffic.groups * w_.traffic.members))));
    std::vector<Traffic> chunks;
    for (int r = 0; r < kRounds; ++r)
      chunks.push_back(make_traffic(w_.traffic, chunk_rounds,
                                    seed_ ^ (0x0BE7ULL + static_cast<std::uint64_t>(r))));

    std::vector<double> stack_build_s;
    Stacks stacks(threads_);
    std::array<std::size_t, kStackCount> episodes{};
    for (std::size_t s = 0; s < kStackCount; ++s)
      episodes[s] = calibrate(stacks, static_cast<StackId>(s),
                              0.5 * round_s / kStackCount, p);
    p.counters_before = stacks.counters();

    std::array<StackAcc, kStackCount> acc;
    std::array<std::uint64_t, kStackCount> done{};
    std::vector<double> drain, busy, submit, flush_ns, save_ns, lateness_ns,
        reference;
    Sampled service_setup_s, burst_rates, release_ns, release_p99_ns, recover_s;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t s = 0; s < kStackCount; ++s) {
        const std::size_t offset =
            (static_cast<std::size_t>(round) * 7919 + s * 104729) % kWorkTable;
        bool compact = true;
        const RepResult r = measured_rep(stacks, static_cast<StackId>(s),
                                         episodes[s], offset, p, compact);
        ++acc[s].reps;
        if (compact) {
          ++acc[s].compact_reps;
          add_rep(s, r, acc[s], done[s], p);
        } else {
          check_rep(r, p);
        }
      }
      // Bursts fill a fifth of the round, placement waits not counted,
      // so a round that waited still weighs as much as any other.
      double burst_s = 0.0;
      do {
        const bool compact = place_service(p);
        const double t_burst = wall_s();
        const BurstResult b = burst_rep(p);
        burst_s += wall_s() - t_burst;
        service_setup_s.add(compact, b.setup_s);
        burst_rates.add(compact, b.arrivals_per_s);
        drain.push_back(b.drain_wait_s);
        busy.push_back(b.busy_ratio);
        submit.insert(submit.end(), b.submit_ns.begin(), b.submit_ns.end());
        if (store_.journal) {
          const std::vector<double> f = store_.journal->flush_ns();
          flush_ns.insert(flush_ns.end(), f.begin(), f.end());
        }
      } while (burst_s < 0.2 * round_s);
      recover_reps(p, recover_s, save_ns);
      const bool compact = place_service(p);
      OpenLoopResult o = open_chunk(chunks[static_cast<std::size_t>(round)], p);
      service_setup_s.add(compact, o.setup_s);
      // The tail is taken per chunk and its median reported, so one
      // chunk hit by a host stall does not decide the run's p99.
      if (!percentile_supported(o.release_ns.size(), 99.0)) ++p.failed;
      release_p99_ns.add(compact, percentile(o.release_ns, 99.0));
      release_ns.add(compact, o.release_ns);
      lateness_ns.insert(lateness_ns.end(), o.lateness_ns.begin(), o.lateness_ns.end());
      reference.push_back(reference_ns());
      const std::int64_t t0 = now_ns();
      { Stacks probe(threads_); }
      stack_build_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    p.counters_after = stacks.counters();
    store_ = {};
    std::filesystem::remove_all(tmp_ + "/burst");
    for (std::size_t s = 0; s < kStackCount; ++s)
      p.compact_share.push_back(
          {kStackNames[s], share(acc[s].compact_reps, acc[s].reps)});
    p.compact_share.push_back(
        {"service.burst", share(burst_rates.compact_reps, burst_rates.reps)});
    p.compact_share.push_back(
        {"service.recover", share(recover_s.compact_reps, recover_s.reps)});
    p.compact_share.push_back(
        {"service.open", share(release_ns.compact_reps, release_ns.reps)});
    std::fprintf(stderr,
                 "perfbench: pass of %.1f s took %.1f s; placement waited "
                 "%.2f s, %llu reps redone, %llu reps on a split placement, "
                 "least compact leg %.2f\n",
                 seconds, wall_s() - t_start, p.placement_wait_s,
                 static_cast<unsigned long long>(p.redone_reps),
                 static_cast<unsigned long long>(p.split_reps),
                 p.min_compact_share());
    if (!p.usable()) return p;

    for (std::size_t s = 0; s < kStackCount; ++s) finish_stack(acc[s], p.stacks[s]);
    p.setup_s = median(stack_build_s) + median(service_setup_s.values);
    p.arrivals_per_s = median(burst_rates.values);
    p.drain_wait_s = median(drain);
    p.busy_ratio = median(busy);
    if (!submit.empty()) p.submit_ns_p50 = percentile(submit, 50.0);
    if (!flush_ns.empty()) p.flush_ns_p50 = percentile(flush_ns, 50.0);
    if (!save_ns.empty()) p.snapshot_save_ns_p50 = percentile(save_ns, 50.0);
    p.release_samples = release_ns.values.size();
    p.release_p50_us =
        binned_percentile(release_ns.values, 50.0, kClockGridNs) / 1000.0;
    p.release_p99_us = median(release_p99_ns.values) / 1000.0;
    p.gen_lateness_p99_us = percentile(lateness_ns, 99.0) / 1000.0;
    p.recover_s = median(recover_s.values);
    p.reference_ns = median(reference);
    return p;
  }

  /// exec.scaling_ratio's denominator: burst arrivals/s at one worker.
  double one_worker_arrivals_per_s(int reps) {
    ServiceSetup s = service_setup(nullptr);
    s.workers = 1;
    s.dir = tmp_ + "/burst1w";
    std::vector<double> rates;
    for (int i = 0; i < reps; ++i) {
      std::filesystem::remove_all(s.dir);
      rates.push_back(
          run_burst(burst_traffic_, s, open_journal_store(s)).arrivals_per_s);
    }
    std::filesystem::remove_all(s.dir);
    return median(rates);
  }

  /// The model's t_c: counter-update time between the two closest CPUs.
  double tc_us() {
    const Placement pl = closest_cpus(allowed_, 2, min_pair_ns_);
    return transfer_ns(pl.cpus[0], pl.cpus[1], 200000) / 1000.0;
  }

 private:
  static double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }

  ServiceSetup service_setup(TraceSink* trace) const {
    ServiceSetup s;
    s.workers = std::max<std::size_t>(1, allowed_.size() - 1);
    if (allowed_.size() > 1) {
      s.producer_cpus = {allowed_.front()};
      s.worker_cpus.assign(allowed_.begin() + 1, allowed_.end());
    }
    s.journal = w_.journal;
    s.snapshot_interval = kSnapshotInterval;
    s.trace = trace;
    return s;
  }

  /// Waits, within the pass's wait budget, until `k` CPUs share one
  /// cache domain: the slowest transfer among the closest k is at most
  /// kSplitFactor x the fastest pair this process has seen. Leaves the
  /// closest k in cohort_.cpus when k is the cohort size. Returns false
  /// when the budget ran out first.
  bool place(std::size_t k, Pass& p) {
    for (;;) {
      const Placement pl = closest_cpus(allowed_, k, min_pair_ns_);
      if (k == threads_) cohort_.cpus = pl.cpus;
      if (pl.worst_ns <= kSplitFactor * min_pair_ns_) return true;
      if (p.placement_wait_s >= wait_budget_s_) return false;
      const double t0 = wall_s();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      p.placement_wait_s += wall_s() - t0;
    }
  }

  /// Service legs use every CPU, so they wait for all of them to share
  /// a domain. False when the leg runs split.
  bool place_service(Pass& p) {
    if (place(allowed_.size(), p)) return true;
    ++p.split_reps;
    return false;
  }

  /// One rep on a compact placement that was still compact when the rep
  /// ended; a rep the host split mid-way is checked, then redone.
  /// `compact` is false when the rep ran split after all.
  RepResult measured_rep(Stacks& stacks, StackId id, std::size_t episodes,
                         std::size_t offset, Pass& p, bool& compact) {
    for (int attempt = 0;; ++attempt) {
      compact = place(threads_, p);
      RepResult r = stacks.run_rep(id, cohort_, episodes, offset);
      if (!compact) {
        ++p.split_reps;
        return r;
      }
      if (worst_transfer_ns(cohort_.cpus) <= kSplitFactor * min_pair_ns_)
        return r;
      ++p.redone_reps;
      if (attempt == 5) {
        compact = false;
        return r;
      }
      check_rep(r, p);
    }
  }

  /// Warm-up rep (not measured); its rate sizes the measured reps.
  std::size_t calibrate(Stacks& stacks, StackId id, double rep_s, Pass& p) {
    constexpr std::size_t kWarm = 1000;
    bool compact = true;
    const RepResult warm = measured_rep(stacks, id, kWarm, 0, p, compact);
    check_rep(warm, p);
    const double rate = kWarm / rep_seconds(warm);
    return std::clamp<std::size_t>(static_cast<std::size_t>(rate * rep_s), 200,
                                   kMaxRepEpisodes);
  }

  static double rep_seconds(const RepResult& r) {
    std::int64_t first = r.stamps[0][0].enter_ns, last = r.stamps[0].back().exit_ns;
    for (const auto& row : r.stamps) {
      first = std::min(first, row.front().enter_ns);
      last = std::max(last, row.back().exit_ns);
    }
    return std::max(1e-9, static_cast<double>(last - first) * 1e-9);
  }

  /// Correctness of a rep: decorator statuses and, from the outside
  /// timestamps, no thread leaving an episode before its last arrival.
  static std::vector<Episode> check_rep(const RepResult& r, Pass& p) {
    std::vector<Episode> eps = join_episodes(r.stamps);
    for (const Episode& e : eps)
      if (e.early_release()) ++p.failed;
    p.failed += r.bad_status;
    p.attempted += eps.size();
    p.pinned = p.pinned && r.pinned;
    return eps;
  }

  void add_rep(std::size_t s, const RepResult& r, StackAcc& a,
               std::uint64_t& done, Pass& p) {
    const std::uint64_t rep_id = trace_ ? trace_->next_id() : 0;
    const std::vector<Episode> eps = check_rep(r, p);
    a.episodes += static_cast<double>(eps.size());
    a.seconds += rep_seconds(r);
    for (const Episode& e : eps) {
      a.delays.push_back(static_cast<double>(e.sync_delay_ns()));
      a.firsts.push_back(static_cast<double>(e.first_delay_ns()));
      a.spreads.push_back(static_cast<double>(e.release_spread_ns()));
    }
    a.sigmas.push_back(arrival_sigma_ns(r.stamps));
    if (trace_ != nullptr) trace_rep(s, r, eps, rep_id, done);
    done += eps.size();
  }

  static void finish_stack(StackAcc& a, StackStats& st) {
    st.episodes_per_s = a.episodes / a.seconds;
    st.samples = a.delays.size();
    st.p50_us = binned_percentile(a.delays, 50.0, kClockGridNs) / 1000.0;
    st.p99_us = percentile(a.delays, 99.0) / 1000.0;
    st.max_us = a.delays.back() / 1000.0;
    st.first_p50_us = binned_percentile(a.firsts, 50.0, kClockGridNs) / 1000.0;
    st.spread_p50_us = binned_percentile(a.spreads, 50.0, kClockGridNs) / 1000.0;
    st.sigma_ns = median(a.sigmas);
    st.delay_ns = std::move(a.delays);
  }

  /// The first episodes of a rep as spans: one per thread per call,
  /// sharing the episode ordinal, under one span for the rep.
  void trace_rep(std::size_t s, const RepResult& r,
                 const std::vector<Episode>& eps, std::uint64_t rep_id,
                 std::uint64_t ordinal0) {
    std::vector<Span> spans;
    const std::size_t k = std::min(eps.size(), kTraceEpisodesPerRep);
    for (std::size_t t = 0; t < r.stamps.size(); ++t)
      for (std::size_t e = 0; e < k; ++e)
        spans.push_back(Span{kStackSpanNames[s], static_cast<std::uint32_t>(t + 1),
                             r.stamps[t][e].enter_ns, r.stamps[t][e].exit_ns,
                             ordinal0 + e, rep_id});
    spans.push_back(Span{kStackNames[s], 0, r.stamps[0][0].enter_ns,
                         eps.back().last_release_ns, rep_id, 0});
    trace_->add(spans);
  }

  /// One closed burst on a fresh service (and, on durable, a fresh
  /// journal, kept in store_ for the recovery leg).
  BurstResult burst_rep(Pass& p) {
    ServiceSetup s = service_setup(trace_);
    s.dir = tmp_ + "/burst";
    std::filesystem::remove_all(s.dir);
    store_ = open_journal_store(s);
    BurstResult r = run_burst(burst_traffic_, s, store_);
    p.attempted += r.check.attempted;
    p.failed += r.check.failed;
    p.burst_counters = r.check.counters;
    if (store_.journal) {
      p.append_calls = store_.journal->append_calls();
      p.flush_calls = store_.journal->flush_calls();
      p.bytes_per_arrival = static_cast<double>(store_.journal->bytes()) /
                            static_cast<double>(burst_traffic_.ops.size());
      store_.journal->publish_spans();
      store_.snapshots->publish_spans();
    }
    return r;
  }

  /// Durable only: writes each shard's latest snapshot from the round's
  /// last burst to snapshot files that outlive the burst, so each save
  /// after the first round truncates and rewrites a file
  /// (FileSnapshotStore::save), and the restarts load their snapshots
  /// from disk. The timed bursts snapshot to memory: with file snapshots
  /// inside them, saves stalled their shards on ext4 and a burst took
  /// anywhere from 0.5 to 2.7 s.
  void persist_snapshots(const ServiceSetup& s) {
    auto files =
        std::make_shared<imbar::service::FileSnapshotStore>(tmp_ + "/snapshot");
    auto timed = std::make_shared<TimedSnapshots>(files, trace_);
    for (std::size_t shard = 0; shard < s.shards; ++shard) {
      const std::string blob = store_.snapshots->load(shard);
      if (blob.empty())
        std::filesystem::remove(files->path_for(shard));
      else
        timed->save(shard, blob);
    }
    store_.snapshots = std::move(timed);
  }

  OpenLoopResult open_chunk(const Traffic& traffic, Pass& p) {
    ServiceSetup s = service_setup(trace_);
    s.dir = tmp_ + "/open";
    std::filesystem::remove_all(s.dir);
    JournalStore store = open_journal_store(s);
    OpenLoopResult r = run_open_loop(traffic, kOpenLoopRate, s, store);
    if (store.journal) {
      store.journal->publish_spans();
      store.snapshots->publish_spans();
    }
    std::filesystem::remove_all(s.dir);
    p.attempted += r.check.attempted;
    p.failed += r.check.failed;
    return r;
  }

  /// Restarts over a journal of the burst traffic: the round's last
  /// timed burst's file journal and snapshot files on durable (also
  /// collects the snapshot save times); elsewhere an untimed
  /// in-memory recording, since the timed bursts run with the journal
  /// off.
  void recover_reps(Pass& p, Sampled& times, std::vector<double>& save_ns) {
    ServiceSetup s = service_setup(trace_);
    imbar::service::ServiceCounters before = p.burst_counters;
    if (s.journal == Journal::kFile) persist_snapshots(s);
    if (s.journal == Journal::kOff) {
      s.journal = Journal::kMemory;
      store_ = open_journal_store(s);
      const BurstResult rec = run_burst(burst_traffic_, s, store_);
      p.attempted += rec.check.attempted;
      p.failed += rec.check.failed;
      before = rec.check.counters;
      p.append_calls = store_.journal->append_calls();
      p.flush_calls = store_.journal->flush_calls();
      p.bytes_per_arrival = static_cast<double>(store_.journal->bytes()) /
                            static_cast<double>(burst_traffic_.ops.size());
      std::vector<double> f = store_.journal->flush_ns();
      if (!f.empty()) p.flush_ns_p50 = percentile(f, 50.0);
    }
    const std::vector<double> v = store_.snapshots->save_ns();
    save_ns.insert(save_ns.end(), v.begin(), v.end());
    for (int i = 0; i < kRecoverRepsPerRound; ++i) {
      const bool compact = place_service(p);
      const RecoverResult r = run_recover(s, store_, before);
      times.add(compact, r.recover_s);
      p.recovery = r.report;
      ++p.attempted;
      p.failed += r.failed;
    }
    store_.journal->publish_spans();
    store_.snapshots->publish_spans();
  }

  Workload w_;
  std::uint64_t seed_;
  std::string tmp_;
  std::vector<int> allowed_;
  std::size_t threads_ = 0;
  double min_pair_ns_ = std::numeric_limits<double>::infinity();
  double wait_budget_s_ = 0.0;
  Cohort cohort_;
  Traffic burst_traffic_;
  JournalStore store_;
  TraceSink* trace_ = nullptr;
};

/// Ordered name -> (value, unit) for the result line.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

Metrics end_to_end(const Pass& p) {
  Metrics m;
  m.push_back({"setup_s", {p.setup_s, "s"}});
  for (std::size_t s = 0; s < kStackCount; ++s)
    m.push_back({std::string(kStackNames[s]) + ".episodes_per_s",
                 {p.stacks[s].episodes_per_s, "1/s"}});
  for (std::size_t s = 0; s < kStackCount; ++s)
    m.push_back({std::string(kStackNames[s]) + ".sync_delay_p50_us",
                 {p.stacks[s].p50_us, "us"}});
  m.push_back({"service.arrivals_per_s", {p.arrivals_per_s, "1/s"}});
  m.push_back({"service.recover_s", {p.recover_s, "s"}});
  return m;
}

struct ModelInputs {
  std::size_t procs = 0;  // barrier threads per cohort
  double tc_us = 0.0;
  double one_worker_arrivals_per_s = 0.0;
};

Metrics per_layer(const Pass& base, const Pass& p, const ModelInputs& in,
                  const TraceSink& trace) {
  Metrics m;
  auto add = [&m](const std::string& k, double v, const char* unit) {
    m.push_back({k, {v, unit}});
  };
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const StackStats& raw = p.stacks[0];
  const StackCounters& c0 = p.counters_before;
  const StackCounters& c1 = p.counters_after;
  add("raw.sync_delay_first_us", raw.first_p50_us, "us");
  add("raw.release_spread_us", raw.spread_p50_us, "us");
  add("raw.updates_per_episode",
      delta(c0.raw_updates, c1.raw_updates) /
          std::max(1.0, delta(c0.raw_episodes, c1.raw_episodes)),
      "count");
  for (std::size_t s = 0; s < kStackCount; ++s) {
    const std::string n = kStackNames[s];
    if (s != 0) add(n + ".overhead_ratio", p.stacks[s].p50_us / raw.p50_us, "ratio");
    add(n + ".sync_delay_p99_us", p.stacks[s].p99_us, "us");
    add(n + ".sync_delay_samples", static_cast<double>(p.stacks[s].samples),
        "count");
  }
  add("membership.fences", delta(c0.membership_fences, c1.membership_fences), "count");
  add("quorum.fences", delta(c0.quorum_fences, c1.quorum_fences), "count");
  add("quorum.strict_releases",
      delta(c0.quorum_strict_releases, c1.quorum_strict_releases), "count");
  double stall_ns = 0.0;
  for (const double d : p.stacks[4].delay_ns)
    if (d > 10.0 * raw.p99_us * 1000.0) stall_ns += d;
  add("controlled.stall_us", stall_ns / 1000.0, "us");
  add("controlled.reviews", delta(c0.controlled_reviews, c1.controlled_reviews), "count");
  add("controlled.swaps", delta(c0.controlled_swaps, c1.controlled_swaps), "count");
  add("controlled.sync_delay_max_us", p.stacks[4].max_us, "us");

  add("service.submit_ns_p50", p.submit_ns_p50, "ns");
  add("service.drain_wait_s", p.drain_wait_s, "s");
  add("service.slot_grants", static_cast<double>(p.burst_counters.slot_grants), "count");
  add("service.slot_evictions", static_cast<double>(p.burst_counters.slot_evictions), "count");
  add("service.ready_enqueues", static_cast<double>(p.burst_counters.ready_enqueues), "count");
  add("service.completions_late", static_cast<double>(p.burst_counters.completions_late), "count");
  add("service.gen_lateness_us", p.gen_lateness_p99_us, "us");
  // Not steady enough to gate (host drift moved the p50 by a third
  // between sets; wake-up tails): reported here.
  add("service.release_p50_us", p.release_p50_us, "us");
  add("service.release_p99_us", p.release_p99_us, "us");
  add("service.release_samples", static_cast<double>(p.release_samples), "count");
  add("exec.busy_ratio", p.busy_ratio, "ratio");
  add("exec.scaling_ratio", p.arrivals_per_s / in.one_worker_arrivals_per_s, "ratio");

  add("storage.append_calls", static_cast<double>(p.append_calls), "count");
  add("storage.flush_calls", static_cast<double>(p.flush_calls), "count");
  add("storage.flush_ns_p50", p.flush_ns_p50, "ns");
  add("storage.bytes_per_arrival", p.bytes_per_arrival, "B");
  add("storage.snapshot_save_ns_p50", p.snapshot_save_ns_p50, "ns");
  add("journal.replayed_ops", static_cast<double>(p.recovery.replayed_ops), "count");
  add("journal.snapshots_loaded", static_cast<double>(p.recovery.snapshots_loaded), "count");

  // Section 6 of the paper, redone here: Algorithm 1 and the simulator
  // at the sigma and t_c measured in this run, against raw's p50.
  const double sigma_us = raw.sigma_ns / 1000.0;
  const std::size_t procs = in.procs;
  imbar::AnalyticParams ap;
  ap.procs = procs;
  ap.degree = 2;
  ap.sigma = sigma_us;
  ap.t_c = in.tc_us;
  const double predicted = imbar::analytic_sync_delay_general(ap).sync_delay;
  imbar::simb::SweepOptions so;
  so.trials = 4000;
  so.sigma = sigma_us;
  so.t_c = in.tc_us;
  const double simulated = imbar::simb::simulate_delay(procs, 2, so).mean_delay;
  add("model.tc_us", in.tc_us, "us");
  add("model.sigma_tc", sigma_us / in.tc_us, "ratio");
  add("model.predicted_sync_delay_us", predicted, "us");
  add("model.simulated_sync_delay_us", simulated, "us");
  add("model.gap_ratio", raw.p50_us / predicted, "ratio");

  const Metrics e_base = end_to_end(base);
  const Metrics e_traced = end_to_end(p);
  for (std::size_t i = 0; i < e_base.size(); ++i)
    add("trace.overhead_ratio." + e_base[i].first,
        e_traced[i].second.first / e_base[i].second.first, "ratio");
  add("trace.spans", static_cast<double>(trace.size()), "count");
  add("bench.placement_wait_s", p.placement_wait_s, "s");
  add("bench.redone_reps", static_cast<double>(p.redone_reps), "count");
  add("bench.split_reps", static_cast<double>(p.split_reps), "count");
  add("bench.compact_share_min", p.min_compact_share(), "ratio");
  add("bench.reference_ns", p.reference_ns, "ns");
  return m;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

void print_report(std::FILE* out, const HostFingerprint& h, const Workload& w,
                  std::uint64_t seed, double seconds, bool traced,
                  const Pass& p, std::size_t threads) {
  std::fprintf(out,
      "{\"report\":\"imbar.perfbench.v1\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d,\"host\":{\"nproc\":%u,\"cpu_model\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\"},\"barrier_threads\":%zu,"
      "\"pinned\":%s,\"samples\":{",
      w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
      traced ? 1 : 0, h.nproc, json_escape(h.cpu_model).c_str(),
      json_escape(h.compiler).c_str(), json_escape(h.build_type).c_str(),
      threads, p.pinned ? "true" : "false");
  // Each sample count with the highest tail percentile it supports.
  auto samples = [out](std::size_t n) {
    std::fprintf(out, "{\"n\":%zu,\"tail_pct\":%g}", n,
                 highest_supported_percentile(n));
  };
  for (std::size_t s = 0; s < kStackCount; ++s) {
    std::fprintf(out, "\"%s.sync_delay\":", kStackNames[s]);
    samples(p.stacks[s].samples);
    std::fprintf(out, ",");
  }
  std::fprintf(out, "\"service.release\":");
  samples(p.release_samples);
  std::fprintf(out, "},\"placement\":{\"wait_s\":%.3f,"
               "\"redone_reps\":%llu,\"split_reps\":%llu,\"compact_share\":{",
               p.placement_wait_s,
               static_cast<unsigned long long>(p.redone_reps),
               static_cast<unsigned long long>(p.split_reps));
  for (std::size_t i = 0; i < p.compact_share.size(); ++i)
    std::fprintf(out, "%s\"%s\":%.3f", i ? "," : "",
                 p.compact_share[i].first.c_str(), p.compact_share[i].second);
  std::fprintf(out, "}}}\n");
}

/// Exit code of a pass in which some leg ran mostly on a split
/// placement: its figures would describe another regime, so it reports
/// none. The report goes to stderr.
constexpr int kUnusable = 3;

int unusable(const HostFingerprint& h, const Workload& w, std::uint64_t seed,
             double seconds, bool traced, const Pass& p, std::size_t threads) {
  std::fprintf(stderr,
               "perfbench: unusable pass: a leg ran under %.0f%% of its reps "
               "inside one cache domain; no metrics reported (%llu of %llu "
               "checks failed)\n",
               100.0 * kMinCompactShare,
               static_cast<unsigned long long>(p.failed),
               static_cast<unsigned long long>(p.attempted));
  print_report(stderr, h, w, seed, seconds, traced, p, threads);
  return kUnusable;
}

void print_result(const Pass& p, const Metrics& m) {
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              p.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.failed));
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}", i ? "," : "",
                m[i].first.c_str(), m[i].second.first, m[i].second.second.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Removes the run's temporary directory (journals, snapshots) on every
/// exit path out of main.
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int run(int argc, char** argv) {
  const imbar::Cli cli(argc, argv);
  for (const char* key : {"workload", "seed", "seconds", "trace"})
    if (!cli.has(key)) throw std::invalid_argument(std::string("missing --") + key);
  const Workload w = workload_named(cli.get("workload", ""));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  const double seconds = cli.get_double("seconds", 0.0);
  const long long trace_flag = cli.get_int("trace", -1);
  if (!(seconds > 0.0) || seconds > 600.0)
    throw std::invalid_argument("--seconds must be in (0, 600]");
  if (trace_flag != 0 && trace_flag != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  const std::string work_dir = cli.get("work-dir", ".bench_build/perfbench-run");
  const TempDir temp(work_dir + "/tmp-" + std::to_string(::getpid()));

  const HostFingerprint host = host_fingerprint();
  Bench bench(w, seed, temp.path());
  if (trace_flag == 0) {
    const Pass p = bench.run(seconds, nullptr);
    if (!p.usable())
      return unusable(host, w, seed, seconds, false, p, bench.threads());
    print_report(stdout, host, w, seed, seconds, false, p, bench.threads());
    print_result(p, end_to_end(p));
    return p.failed == 0 ? 0 : 1;
  }
  // Traced: an untraced pass and a traced pass of half the time each,
  // so trace.overhead_ratio compares like with like in one process.
  const Pass base = bench.run(seconds / 2.0, nullptr);
  if (!base.usable())
    return unusable(host, w, seed, seconds, true, base, bench.threads());
  TraceSink trace(100000);
  const Pass traced = bench.run(seconds / 2.0, &trace);
  if (!traced.usable())
    return unusable(host, w, seed, seconds, true, traced, bench.threads());
  ModelInputs in;
  in.procs = bench.threads();
  in.one_worker_arrivals_per_s = bench.one_worker_arrivals_per_s(5);
  in.tc_us = bench.tc_us();
  const Metrics layers = per_layer(base, traced, in, trace);
  // One file per workload, overwritten: a run of many seeds must not
  // fill the disk with traces.
  const std::string trace_path = work_dir + "/trace-" + w.name + ".json";
  trace.write_chrome_json(trace_path);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", trace.size(),
               trace_path.c_str());
  Pass total = traced;
  total.attempted += base.attempted;
  total.failed += base.failed;
  print_report(stdout, host, w, seed, seconds, true, total, bench.threads());
  print_result(total, layers);
  return total.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
