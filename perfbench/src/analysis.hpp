// Pure measurement arithmetic of the benchmark: joining per-thread
// barrier timestamps into episodes, the percentile rule, and open-loop
// release latency measured from due times. Kept free of threads and
// clocks so perfbench_selftest can check it on canned numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One thread's steady_clock readings (ns) just before and just after
/// one barrier call.
struct Stamp {
  std::int64_t enter_ns = 0;
  std::int64_t exit_ns = 0;
};

/// One barrier episode seen from outside, across all threads.
struct Episode {
  std::int64_t last_arrival_ns = 0;   // max over threads of enter
  std::int64_t first_release_ns = 0;  // min over threads of exit
  std::int64_t last_release_ns = 0;   // max over threads of exit

  /// Synchronization delay: last arrival -> last release.
  [[nodiscard]] std::int64_t sync_delay_ns() const {
    return last_release_ns - last_arrival_ns;
  }
  /// Last arrival -> first release.
  [[nodiscard]] std::int64_t first_delay_ns() const {
    return first_release_ns - last_arrival_ns;
  }
  /// First release -> last release.
  [[nodiscard]] std::int64_t release_spread_ns() const {
    return last_release_ns - first_release_ns;
  }
  /// A thread left before the last thread entered: a barrier violation.
  [[nodiscard]] bool early_release() const {
    return first_release_ns < last_arrival_ns;
  }
};

/// stamps[t][e] is thread t's e-th call. Every thread must have made
/// the same number of calls (throws std::invalid_argument otherwise).
[[nodiscard]] std::vector<Episode> join_episodes(
    const std::vector<std::vector<Stamp>>& stamps);

/// Pooled standard deviation of arrival (enter) times within episodes,
/// in ns: sqrt of the mean over episodes of the unbiased per-episode
/// variance. The paper's sigma, measured from outside.
[[nodiscard]] double arrival_sigma_ns(
    const std::vector<std::vector<Stamp>>& stamps);

/// Nearest-rank percentile q in [0, 100] of `v` (sorted in place).
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double percentile(std::vector<double>& v, double q);

/// Percentile q of `v` (sorted in place) for samples on a clock grid:
/// each sample counts as spread evenly over the `bin`-wide interval
/// centred on its grid point, and the percentile is interpolated inside
/// the interval that holds it. On a 10 ns clock a 100 ns median moves
/// in 10% steps by nearest rank; this moves smoothly.
[[nodiscard]] double binned_percentile(std::vector<double>& v, double q,
                                       double bin);

/// True when `n` samples leave at least ten samples above the q-th
/// percentile, the support a reported tail needs.
[[nodiscard]] bool percentile_supported(std::size_t n, double q);

/// The highest of {99.9, 99, 90, 50} that `n` samples support, or 0
/// when none is.
[[nodiscard]] double highest_supported_percentile(std::size_t n);

/// One arrival op of a service traffic script.
struct ArrivalOp {
  std::uint32_t group = 0;
  std::uint32_t member = 0;
  std::uint32_t round = 0;
};

/// For each (group, round), the index into `ops` of the arrival that
/// releases the phase: the `need[group]`-th arrival of that round in
/// submission order (n for strict groups, k for quorum groups with a
/// zero budget). Indexed group * rounds + round; entries whose phase
/// never gathers `need` arrivals hold UINT32_MAX.
[[nodiscard]] std::vector<std::uint32_t> release_triggers(
    const std::vector<ArrivalOp>& ops, std::uint32_t groups,
    std::uint32_t rounds, const std::vector<std::uint32_t>& need);

/// Open-loop release latency per phase, in ns: delivery of the phase's
/// last release completion minus the *due* time of its trigger arrival
/// (start_ns + trigger * period_ns), so a stalled generator is charged
/// to the phases it delays. Phases with no trigger or no delivery
/// (delivered_ns == 0) are skipped and counted in `missing`.
struct LatencyResult {
  std::vector<double> latency_ns;
  std::size_t missing = 0;
  std::size_t negative = 0;  // delivered before due: a timing bug
};
[[nodiscard]] LatencyResult release_latencies(
    std::int64_t start_ns, double period_ns,
    const std::vector<std::uint32_t>& triggers,
    const std::vector<std::int64_t>& delivered_ns);

}  // namespace perfbench
