// The five barrier stacks a user can deploy, all over the same raw
// kind (a degree-2 combining tree, so the late arriver's update path
// has more than one level), and a closed-loop cohort that times every
// arrive_and_wait call from outside.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis.hpp"
#include "barrier/barrier.hpp"
#include "control/controlled_barrier.hpp"
#include "robust/membership.hpp"
#include "robust/quorum_barrier.hpp"
#include "robust/robust_barrier.hpp"

namespace perfbench {

enum class StackId : std::size_t {
  kRaw,
  kRobust,
  kMembership,
  kQuorum,
  kControlled
};
inline constexpr std::size_t kStackCount = 5;
inline constexpr std::array<const char*, kStackCount> kStackNames = {
    "raw", "robust", "membership", "quorum", "controlled"};
inline constexpr std::array<const char*, kStackCount> kStackSpanNames = {
    "raw.arrive_and_wait", "robust.arrive_and_wait",
    "membership.arrive_and_wait", "quorum.arrive_and_wait",
    "controlled.arrive_and_wait"};

/// Who runs a rep and what work each call is preceded by.
struct Cohort {
  std::vector<int> cpus;  // one pinned thread per entry
  /// work_ns[t] cycles through thread t's pre-drawn work durations;
  /// empty = no injected work (sigma = 0).
  std::vector<std::vector<std::int64_t>> work_ns;
};

/// One rep of `episodes` back-to-back episodes on one stack.
struct RepResult {
  std::vector<std::vector<Stamp>> stamps;  // [thread][episode]
  std::uint64_t bad_status = 0;  // decorator calls that did not return ok
  bool pinned = true;            // every thread got its CPU
};

/// Layer counters read at quiescence (after a rep has joined).
struct StackCounters {
  std::uint64_t raw_episodes = 0;
  std::uint64_t raw_updates = 0;
  std::uint64_t membership_fences = 0;
  std::uint64_t quorum_fences = 0;
  std::uint64_t quorum_strict_releases = 0;
  std::uint64_t controlled_reviews = 0;
  std::uint64_t controlled_swaps = 0;
};

class Stacks {
 public:
  explicit Stacks(std::size_t threads);

  Stacks(const Stacks&) = delete;
  Stacks& operator=(const Stacks&) = delete;

  /// Run one rep on `id`. Thread t draws work from
  /// cohort.work_ns[t][(work_offset + e) % size].
  RepResult run_rep(StackId id, const Cohort& cohort, std::size_t episodes,
                    std::size_t work_offset);

  [[nodiscard]] StackCounters counters() const;

 private:
  std::unique_ptr<imbar::Barrier> raw_;
  std::unique_ptr<imbar::robust::RobustBarrier> robust_;
  std::unique_ptr<imbar::robust::MembershipGroup> membership_;
  std::unique_ptr<imbar::robust::QuorumBarrier> quorum_;
  std::unique_ptr<imbar::control::ControlledBarrier> controlled_;
};

/// Mean time per update, in ns, when threads pinned to `cpu_a` and
/// `cpu_b` take turns updating one shared counter: every update first
/// pulls the line from the other core. At `updates` = 200000 this is
/// the model's counter-update time t_c, as a combining tree pays it.
[[nodiscard]] double transfer_ns(int cpu_a, int cpu_b, std::uint64_t updates);

/// Where a cohort runs. On a virtual machine the host may place vCPUs
/// in different cache domains and moves them every few seconds; a line
/// transfer across domains costs several times one inside a domain.
struct Placement {
  std::vector<int> cpus;  // the chosen `k` CPUs, ascending
  double worst_ns = 0.0;  // slowest pairwise transfer among them
};

/// The `k` CPUs of `allowed` whose slowest pairwise transfer is the
/// smallest, measured now. `min_pair_ns` is lowered to the fastest pair
/// seen. With more than 8 CPUs, the last k are taken unmeasured.
[[nodiscard]] Placement closest_cpus(const std::vector<int>& allowed,
                                     std::size_t k, double& min_pair_ns);

/// Slowest pairwise transfer among `cpus`, measured now.
[[nodiscard]] double worst_transfer_ns(const std::vector<int>& cpus);

}  // namespace perfbench
