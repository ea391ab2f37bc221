// Service-side legs of the benchmark: seeded traffic scripts, a closed
// burst (submit everything, then drain), an open loop at a fixed
// offered rate, and restart-and-recover over a journal. Every call into
// BarrierService is timed from outside; storage is timed by
// TimedStorage, a StorageBackend that forwards to the real backend, and
// snapshots by TimedSnapshots, a SnapshotStore that does the same.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "service/barrier_service.hpp"
#include "service/snapshot.hpp"
#include "service/storage.hpp"
#include "trace.hpp"

namespace perfbench {

struct TrafficShape {
  std::uint32_t groups = 0;
  std::uint32_t members = 0;
  /// Every quorum_every-th group releases k-of-n with a zero deadline
  /// budget, so its n - k stragglers settle as kLate. 0 = no quorum.
  std::uint32_t quorum_every = 0;
  std::uint32_t quorum_k = 0;
  /// false: each group's members are submitted consecutively. true:
  /// member submissions interleave across many groups with a seeded
  /// spread (rounds of one group never overlap).
  bool interleave = false;
};

/// A seeded arrival script and the counts a correct service delivers.
struct Traffic {
  TrafficShape shape;
  std::uint32_t rounds = 0;
  std::vector<ArrivalOp> ops;
  std::vector<std::uint32_t> need;  // per group: arrivals that release
  std::uint64_t phases = 0;         // groups * rounds
  /// kReleased deliveries the strict groups must make. Quorum groups
  /// have no exact split: a phase that waits for a slot until all n
  /// members arrived releases strictly, by design.
  std::uint64_t strict_group_completions = 0;

  [[nodiscard]] bool quorum_group(std::uint32_t g) const {
    return shape.quorum_every != 0 && g % shape.quorum_every == 0;
  }
};

[[nodiscard]] Traffic make_traffic(const TrafficShape& shape,
                                   std::uint32_t rounds, std::uint64_t seed);

/// StorageBackend decorator owned by the benchmark: counts every
/// append and flush and, when traced, times each one as a span.
class TimedStorage final : public imbar::service::StorageBackend {
 public:
  TimedStorage(std::shared_ptr<imbar::service::StorageBackend> inner,
               TraceSink* trace);

  void append(std::string_view bytes) override;
  void flush() override;
  [[nodiscard]] std::string read_all() override { return inner_->read_all(); }
  void truncate(std::size_t size) override { inner_->truncate(size); }
  [[nodiscard]] std::size_t durable_size() override {
    return inner_->durable_size();
  }
  void crash() override { inner_->crash(); }

  [[nodiscard]] std::uint64_t append_calls() const { return appends_.load(); }
  [[nodiscard]] std::uint64_t flush_calls() const { return flushes_.load(); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_.load(); }
  /// Traced runs only: duration of every flush, in ns.
  [[nodiscard]] std::vector<double> flush_ns() const;
  /// Traced runs only: hand the recorded storage spans to the trace.
  void publish_spans();

 private:
  std::shared_ptr<imbar::service::StorageBackend> inner_;
  TraceSink* trace_;
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> bytes_{0};
  mutable std::mutex mu_;
  std::vector<double> flush_ns_;
  std::vector<Span> spans_;
};

/// SnapshotStore decorator owned by the benchmark: when traced, times
/// every save and records it as a span.
class TimedSnapshots final : public imbar::service::SnapshotStore {
 public:
  TimedSnapshots(std::shared_ptr<imbar::service::SnapshotStore> inner,
                 TraceSink* trace);

  void save(std::size_t shard, const std::string& blob) override;
  [[nodiscard]] std::string load(std::size_t shard) override {
    return inner_->load(shard);
  }

  /// Traced runs only: duration of every save, in ns.
  [[nodiscard]] std::vector<double> save_ns() const;
  /// Traced runs only: hand the recorded save spans to the trace.
  void publish_spans();

 private:
  std::shared_ptr<imbar::service::SnapshotStore> inner_;
  TraceSink* trace_;
  mutable std::mutex mu_;
  std::vector<double> save_ns_;
  std::vector<Span> spans_;
};

enum class Journal { kOff, kMemory, kFile };

/// How one service incarnation is built.
struct ServiceSetup {
  std::size_t workers = 1;
  std::size_t shards = 8;
  std::size_t slots = 64;
  Journal journal = Journal::kOff;
  std::string dir;  // kFile: the journal file goes here
  std::uint64_t snapshot_interval = 0;
  TraceSink* trace = nullptr;  // non-null = traced run
  /// The producer (calling thread) runs on producer_cpus and each
  /// TaskPool worker is pinned to its own entry of worker_cpus, so the
  /// OS never stacks two service threads on one CPU. Empty =
  /// unrestricted.
  std::vector<int> producer_cpus;
  std::vector<int> worker_cpus;
};

/// Storage shared by the incarnations of one journaled history.
struct JournalStore {
  std::shared_ptr<TimedStorage> journal;
  std::shared_ptr<TimedSnapshots> snapshots;
};
[[nodiscard]] JournalStore open_journal_store(const ServiceSetup& setup);

/// Outcome of running a traffic script through one service.
struct LegCheck {
  std::uint64_t attempted = 0;  // arrival ops submitted
  std::uint64_t failed = 0;     // arrivals not settled as expected
  imbar::service::ServiceCounters counters{};
};

struct BurstResult {
  double setup_s = 0.0;  // construct + open journal + create groups
  double arrivals_per_s = 0.0;
  double drain_wait_s = 0.0;  // inside drain() after the last submit
  double busy_ratio = 0.0;    // pool busy time / (workers * burst wall)
  LegCheck check;
  std::vector<double> submit_ns;  // traced: producer time per arrive()
};

/// Closed burst: submit every op of `traffic`, then drain(). `store`
/// is used when setup.journal != kOff (it must be fresh).
[[nodiscard]] BurstResult run_burst(const Traffic& traffic,
                                    const ServiceSetup& setup,
                                    const JournalStore& store);

struct OpenLoopResult {
  double setup_s = 0.0;
  std::vector<double> release_ns;   // per phase, from the trigger's due time
  std::vector<double> lateness_ns;  // submit time minus due time, per op
  LegCheck check;
};

/// Open loop: op i is due at start + i / rate_per_s, whatever the
/// service is doing; the producer submits each op once it is due.
[[nodiscard]] OpenLoopResult run_open_loop(const Traffic& traffic,
                                           double rate_per_s,
                                           const ServiceSetup& setup,
                                           const JournalStore& store);

struct RecoverResult {
  double recover_s = 0.0;  // construct the incarnation + recover()
  std::uint64_t failed = 0;  // 1 when counters differ from `before`
  imbar::service::RecoveryReport report;
};

/// Restart: a fresh incarnation over `store` runs recover(), and its
/// counters must equal `before`, the last incarnation's at quiescence.
[[nodiscard]] RecoverResult run_recover(
    const ServiceSetup& setup, const JournalStore& store,
    const imbar::service::ServiceCounters& before);

}  // namespace perfbench
