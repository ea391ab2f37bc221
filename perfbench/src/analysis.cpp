#include "analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench {

std::vector<Episode> join_episodes(
    const std::vector<std::vector<Stamp>>& stamps) {
  if (stamps.empty()) return {};
  const std::size_t n = stamps.front().size();
  for (const auto& s : stamps)
    if (s.size() != n)
      throw std::invalid_argument("join_episodes: ragged stamp rows");
  std::vector<Episode> out(n);
  for (std::size_t e = 0; e < n; ++e) {
    Episode ep{stamps[0][e].enter_ns, stamps[0][e].exit_ns,
               stamps[0][e].exit_ns};
    for (std::size_t t = 1; t < stamps.size(); ++t) {
      const Stamp& s = stamps[t][e];
      ep.last_arrival_ns = std::max(ep.last_arrival_ns, s.enter_ns);
      ep.first_release_ns = std::min(ep.first_release_ns, s.exit_ns);
      ep.last_release_ns = std::max(ep.last_release_ns, s.exit_ns);
    }
    out[e] = ep;
  }
  return out;
}

double arrival_sigma_ns(const std::vector<std::vector<Stamp>>& stamps) {
  if (stamps.size() < 2 || stamps.front().empty()) return 0.0;
  const std::size_t n = stamps.front().size();
  const double k = static_cast<double>(stamps.size());
  double var_sum = 0.0;
  for (std::size_t e = 0; e < n; ++e) {
    // Offsets from the first thread keep the sums small and exact.
    const std::int64_t base = stamps[0][e].enter_ns;
    double s = 0.0, s2 = 0.0;
    for (const auto& row : stamps) {
      const double x = static_cast<double>(row[e].enter_ns - base);
      s += x;
      s2 += x * x;
    }
    var_sum += (s2 - s * s / k) / (k - 1.0);
  }
  return std::sqrt(std::max(0.0, var_sum / static_cast<double>(n)));
}

namespace {
/// 1-based nearest rank of the q-th percentile among n samples. The
/// epsilon keeps q/100*n exact when it is an integer in decimal
/// (99.9% of 10000 is rank 9990, not 9991).
double nearest_rank(std::size_t n, double q) {
  return std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
}
}  // namespace

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile: empty sample");
  std::sort(v.begin(), v.end());
  const double rank = nearest_rank(v.size(), q);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double binned_percentile(std::vector<double>& v, double q, double bin) {
  const double x = percentile(v, q);  // sorts v
  const double lo = std::floor(x / bin + 0.5) * bin - bin / 2.0;
  const auto first = std::lower_bound(v.begin(), v.end(), lo);
  const auto last = std::lower_bound(first, v.end(), lo + bin);
  const double below = static_cast<double>(first - v.begin());
  const double inside = static_cast<double>(last - first);
  const double rank = q / 100.0 * static_cast<double>(v.size());
  return lo + bin * std::clamp((rank - below) / inside, 0.0, 1.0);
}

bool percentile_supported(std::size_t n, double q) {
  // Samples strictly above the nearest-rank q-th percentile.
  return static_cast<double>(n) - nearest_rank(n, q) >= 10.0;
}

double highest_supported_percentile(std::size_t n) {
  for (const double q : {99.9, 99.0, 90.0, 50.0})
    if (percentile_supported(n, q)) return q;
  return 0.0;
}

std::vector<std::uint32_t> release_triggers(
    const std::vector<ArrivalOp>& ops, std::uint32_t groups,
    std::uint32_t rounds, const std::vector<std::uint32_t>& need) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const std::size_t cells = static_cast<std::size_t>(groups) * rounds;
  std::vector<std::uint32_t> trig(cells, kNone);
  std::vector<std::uint32_t> seen(cells, 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ArrivalOp& op = ops[i];
    if (op.group >= groups || op.round >= rounds || op.group >= need.size())
      throw std::invalid_argument("release_triggers: op out of range");
    const std::size_t c = static_cast<std::size_t>(op.group) * rounds + op.round;
    if (++seen[c] == need[op.group]) trig[c] = static_cast<std::uint32_t>(i);
  }
  return trig;
}

LatencyResult release_latencies(std::int64_t start_ns, double period_ns,
                                const std::vector<std::uint32_t>& triggers,
                                const std::vector<std::int64_t>& delivered_ns) {
  if (triggers.size() != delivered_ns.size())
    throw std::invalid_argument("release_latencies: size mismatch");
  LatencyResult r;
  r.latency_ns.reserve(triggers.size());
  for (std::size_t c = 0; c < triggers.size(); ++c) {
    if (triggers[c] == std::numeric_limits<std::uint32_t>::max() ||
        delivered_ns[c] == 0) {
      ++r.missing;
      continue;
    }
    const double due = static_cast<double>(start_ns) +
                       static_cast<double>(triggers[c]) * period_ns;
    const double lat = static_cast<double>(delivered_ns[c]) - due;
    if (lat < 0.0) ++r.negative;
    r.latency_ns.push_back(lat);
  }
  return r;
}

}  // namespace perfbench
