#include "stacks.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "barrier/factory.hpp"
#include "host.hpp"
#include "util/spin_wait.hpp"

namespace perfbench {
namespace {

using namespace imbar;

BarrierConfig tree_config(std::size_t threads) {
  BarrierConfig c;
  c.kind = BarrierKind::kCombiningTree;
  c.participants = threads;
  c.degree = 2;
  return c;
}

/// Starts every thread of the cohort at once, then each thread runs its
/// closed loop: drawn work, timestamp, call, timestamp.
template <class Call>
RepResult run_cohort(Call&& call, const Cohort& cohort, std::size_t episodes,
                     std::size_t work_offset) {
  const std::size_t n = cohort.cpus.size();
  RepResult r;
  r.stamps.assign(n, std::vector<Stamp>(episodes));
  std::vector<std::uint64_t> bad(n, 0);
  std::vector<char> pinned(n, 1);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      pinned[t] = pin_current_thread(cohort.cpus[t]) ? 1 : 0;
      static const std::vector<std::int64_t> kNoWork;
      const std::vector<std::int64_t>& work =
          cohort.work_ns.empty() ? kNoWork : cohort.work_ns[t];
      Stamp* out = r.stamps[t].data();
      std::uint64_t b = 0;
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) cpu_relax();
      std::int64_t prev = now_ns();
      for (std::size_t e = 0; e < episodes; ++e) {
        if (!work.empty()) {
          const std::int64_t until =
              prev + work[(work_offset + e) % work.size()];
          while (now_ns() < until) cpu_relax();
        }
        const std::int64_t t0 = now_ns();
        if (!call(t)) ++b;
        const std::int64_t t1 = now_ns();
        out[e] = Stamp{t0, t1};
        prev = t1;
      }
      bad[t] = b;
    });
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < n; ++t) {
    r.bad_status += bad[t];
    r.pinned = r.pinned && pinned[t] != 0;
  }
  return r;
}

}  // namespace

Stacks::Stacks(std::size_t threads) {
  const BarrierConfig cfg = tree_config(threads);
  raw_ = make_barrier(cfg);
  robust_ = std::make_unique<robust::RobustBarrier>(cfg);
  // Default membership options: the watchdog deadline is unbounded.
  membership_ = std::make_unique<robust::MembershipGroup>(cfg);
  // cfg.quorum.quorum == 0: strict release, but the ledger still runs.
  quorum_ = std::make_unique<robust::QuorumBarrier>(cfg);
  control::ControlledBarrier::Options copts;
  copts.reviews_enabled = true;
  controlled_ = std::make_unique<control::ControlledBarrier>(cfg, copts);
}

RepResult Stacks::run_rep(StackId id, const Cohort& cohort,
                          std::size_t episodes, std::size_t work_offset) {
  switch (id) {
    case StackId::kRaw:
      return run_cohort(
          [this](std::size_t t) {
            raw_->arrive_and_wait(t);
            return true;
          },
          cohort, episodes, work_offset);
    case StackId::kRobust:
      return run_cohort(
          [this](std::size_t t) {
            return robust_->arrive_and_wait(t) == robust::BarrierStatus::kOk;
          },
          cohort, episodes, work_offset);
    case StackId::kMembership:
      return run_cohort(
          [this](std::size_t t) {
            return membership_->arrive_and_wait(t) ==
                   robust::MemberStatus::kOk;
          },
          cohort, episodes, work_offset);
    case StackId::kQuorum:
      return run_cohort(
          [this](std::size_t t) {
            return quorum_->arrive_and_wait(t) == robust::QuorumStatus::kOk;
          },
          cohort, episodes, work_offset);
    case StackId::kControlled:
      return run_cohort(
          [this](std::size_t t) {
            controlled_->arrive_and_wait(t);
            return true;
          },
          cohort, episodes, work_offset);
  }
  return {};
}

StackCounters Stacks::counters() const {
  StackCounters c;
  const BarrierCounters rc = raw_->counters();
  c.raw_episodes = rc.episodes;
  c.raw_updates = rc.updates;
  c.membership_fences = membership_->stats().fences;
  const robust::QuorumStats qs = quorum_->stats();
  c.quorum_fences = qs.fences;
  c.quorum_strict_releases = qs.strict_releases;
  c.controlled_reviews = controlled_->controller().reviews();
  c.controlled_swaps = controlled_->swaps();
  return c;
}

double transfer_ns(int cpu_a, int cpu_b, std::uint64_t updates) {
  alignas(64) std::atomic<std::uint64_t> counter{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  auto player = [&](int cpu, std::uint64_t parity) {
    pin_current_thread(cpu);
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire)) cpu_relax();
    for (std::uint64_t i = 0; i < updates / 2; ++i) {
      while ((counter.load(std::memory_order_acquire) & 1) != parity)
        cpu_relax();
      counter.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  std::thread a(player, cpu_a, 0), b(player, cpu_b, 1);
  while (ready.load(std::memory_order_acquire) < 2) std::this_thread::yield();
  const std::int64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  a.join();
  b.join();
  const std::int64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(updates);
}

namespace {
constexpr std::uint64_t kProbeUpdates = 2000;
}  // namespace

double worst_transfer_ns(const std::vector<int>& cpus) {
  double worst = 0.0;
  for (std::size_t i = 0; i < cpus.size(); ++i)
    for (std::size_t j = i + 1; j < cpus.size(); ++j)
      worst = std::max(worst, transfer_ns(cpus[i], cpus[j], kProbeUpdates));
  return worst;
}

Placement closest_cpus(const std::vector<int>& allowed, std::size_t k,
                       double& min_pair_ns) {
  Placement best;
  if (allowed.size() <= k || allowed.size() > 8) {
    const std::size_t take = std::min(k, allowed.size());
    best.cpus.assign(allowed.end() - static_cast<std::ptrdiff_t>(take),
                     allowed.end());
    best.worst_ns = worst_transfer_ns(best.cpus);
    min_pair_ns = std::min(min_pair_ns, best.worst_ns);
    return best;
  }
  const std::size_t n = allowed.size();
  std::vector<std::vector<double>> ns(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      ns[i][j] = ns[j][i] = transfer_ns(allowed[i], allowed[j], kProbeUpdates);
      min_pair_ns = std::min(min_pair_ns, ns[i][j]);
    }
  best.worst_ns = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcount(mask)) != k) continue;
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if ((mask >> i & 1u) && (mask >> j & 1u)) worst = std::max(worst, ns[i][j]);
    if (worst < best.worst_ns) {
      best.worst_ns = worst;
      best.cpus.clear();
      for (std::size_t i = 0; i < n; ++i)
        if (mask >> i & 1u) best.cpus.push_back(allowed[i]);
    }
  }
  return best;
}

}  // namespace perfbench
