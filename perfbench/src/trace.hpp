// Spans recorded by the traced run, around calls into each layer's
// public entry points. Held in memory and written once, at the end, as
// Chrome-trace JSON (chrome://tracing, Perfetto).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";    // layer call, e.g. "raw.arrive_and_wait"
  std::uint32_t lane = 0;   // thread lane in the trace view
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Correlation id: the episode ordinal for barrier calls, the
  /// (group, phase) key for service calls, so spans of one episode or
  /// one phase share it.
  std::uint64_t id = 0;
  /// Id of the enclosing benchmark span (rep or leg) that caused it.
  std::uint64_t parent = 0;
};

/// Key of one service phase: group in the high half, phase in the low.
[[nodiscard]] constexpr std::uint64_t phase_key(std::uint32_t group,
                                                std::uint32_t phase) {
  return (static_cast<std::uint64_t>(group) << 32) | phase;
}

/// Bounded, thread-safe span store. Spans past `capacity` are counted
/// in dropped() and not kept, so a long run cannot exhaust memory.
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity) : capacity_(capacity) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void add(const Span& s);
  void add(const std::vector<Span>& batch);
  /// A fresh id for a benchmark-level span (rep, leg).
  std::uint64_t next_id();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Write {"traceEvents": [...]} with one complete ("X") event per
  /// span, times in us relative to the earliest span.
  void write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_id_ = 1ULL << 62;  // above every episode ordinal
};

}  // namespace perfbench
