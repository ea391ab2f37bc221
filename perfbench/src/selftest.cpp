// Checks the benchmark's measurement arithmetic on canned numbers: the
// episode join, the percentile rule, open-loop latency from due times,
// and the Chrome-trace writer.
//
//   perfbench_selftest <trace-output-path>
//
// perfbench/run.py --selftest runs it and then loads the trace file it
// wrote as JSON.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

using namespace perfbench;

void episode_join() {
  // Three threads, two episodes. Episode 0: arrivals 100, 130, 120;
  // releases 150, 140, 160. Episode 1 has thread 1 leave (at 205)
  // before thread 2 enters (at 210): an early release.
  const std::vector<std::vector<Stamp>> stamps = {
      {{100, 150}, {200, 230}},
      {{130, 140}, {201, 205}},
      {{120, 160}, {210, 240}},
  };
  const std::vector<Episode> eps = join_episodes(stamps);
  check(eps.size() == 2, "two episodes joined");
  check(eps[0].last_arrival_ns == 130, "last arrival is the max enter");
  check(eps[0].first_release_ns == 140, "first release is the min exit");
  check(eps[0].last_release_ns == 160, "last release is the max exit");
  check(eps[0].sync_delay_ns() == 30, "sync delay = last release - last arrival");
  check(eps[0].first_delay_ns() == 10, "first delay = first release - last arrival");
  check(eps[0].release_spread_ns() == 20, "spread = last - first release");
  check(!eps[0].early_release(), "episode 0 is a correct barrier");
  check(eps[1].early_release(), "episode 1 releases before the last arrival");

  bool threw = false;
  try {
    (void)join_episodes({{{0, 1}}, {}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "ragged rows are rejected");

  // Arrivals 0, 10, 20 in every episode: sample sd 10.
  const std::vector<std::vector<Stamp>> even = {
      {{0, 30}, {100, 130}}, {{10, 30}, {110, 130}}, {{20, 30}, {120, 130}}};
  check(std::fabs(arrival_sigma_ns(even) - 10.0) < 1e-9, "pooled arrival sigma");
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(percentile(v, 50.0) == 50.0, "nearest-rank p50 of 1..100");
  check(percentile(v, 99.0) == 99.0, "nearest-rank p99 of 1..100");
  check(percentile(v, 100.0) == 100.0, "p100 is the max");
  check(percentile(v, 0.0) == 1.0, "p0 is the min");

  // Two grid points, five samples each: the median sits at the edge
  // between their 10-wide bins, 105; a quarter of the way in, 97.5.
  std::vector<double> grid = {110, 100, 110, 100, 110, 100, 110, 100, 110, 100};
  check(binned_percentile(grid, 50.0, 10.0) == 105.0, "binned median");
  check(binned_percentile(grid, 25.0, 10.0) == 100.0, "binned p25");
  std::vector<double> one = {100, 100, 100, 100};
  check(binned_percentile(one, 50.0, 10.0) == 100.0,
        "binned median of one grid point is its centre");

  check(percentile_supported(1000, 99.0), "1000 samples support p99");
  check(!percentile_supported(999, 99.0), "999 samples do not support p99");
  check(highest_supported_percentile(10000) == 99.9, "10000 -> p99.9");
  check(highest_supported_percentile(1000) == 99.0, "1000 -> p99");
  check(highest_supported_percentile(100) == 90.0, "100 -> p90");
  check(highest_supported_percentile(99) == 50.0, "99 -> p50");
  check(highest_supported_percentile(15) == 0.0, "15 samples support nothing");
}

void open_loop_latency() {
  // Group 0 strict (needs 2 arrivals), group 1 quorum k = 1; 2 rounds.
  const std::vector<ArrivalOp> ops = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
      {0, 1, 1}, {0, 0, 1}, {1, 1, 1},
  };
  const std::vector<std::uint32_t> trig = release_triggers(ops, 2, 2, {2, 1});
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  check(trig.size() == 4, "one trigger per (group, round)");
  check(trig[0] == 2, "g0 r0 releases on its second arrival (op 2)");
  check(trig[1] == 5, "g0 r1 releases on op 5");
  check(trig[2] == 1, "g1 r0 releases on its first arrival (op 1)");
  check(trig[3] == 6, "g1 r1 releases on op 6");
  check(release_triggers(ops, 2, 2, {3, 3})[0] == kNone,
        "a phase that never gathers enough arrivals has no trigger");

  // Ops due every 1000 ns from 10000. Deliveries: g0r0 at 12500 (due
  // 12000 -> 500), g0r1 at 16000 (due 15000 -> 1000), g1r0 never,
  // g1r1 at 15000 (due 16000 -> delivered before due: a bug).
  const LatencyResult r =
      release_latencies(10000, 1000.0, trig, {12500, 16000, 0, 15000});
  check(r.latency_ns.size() == 3, "latencies for delivered phases only");
  check(r.latency_ns[0] == 500.0, "latency counts from the due time");
  check(r.latency_ns[1] == 1000.0, "second phase latency");
  check(r.missing == 1, "an undelivered phase is missing");
  check(r.negative == 1, "delivery before due is flagged");
}

void chrome_trace(const std::string& path) {
  TraceSink sink(2);
  sink.add(Span{"raw.arrive_and_wait", 1, 1000, 3000, 7, 1});
  sink.add(std::vector<Span>{{"service.arrive", 0, 2000, 2500,
                              phase_key(3, 4), 2},
                             {"dropped", 0, 0, 1, 0, 0}});
  check(sink.size() == 2, "sink keeps its capacity");
  check(sink.dropped() == 1, "spans past capacity are counted");
  check(phase_key(3, 4) == ((3ULL << 32) | 4), "phase key layout");
  sink.write_chrome_json(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <trace-output-path>\n");
    return 2;
  }
  episode_join();
  percentile_rule();
  open_loop_latency();
  chrome_trace(argv[1]);
  std::printf("perfbench_selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
