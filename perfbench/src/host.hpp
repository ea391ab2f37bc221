// Host fingerprint, thread pinning and the benchmark clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock in ns: the single clock every timestamp comes from.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a result was measured on, printed with every result.
struct HostFingerprint {
  unsigned nproc = 0;  // CPUs this process may run on
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};

[[nodiscard]] HostFingerprint host_fingerprint();

/// CPUs in this process's affinity mask, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pin the calling thread to `cpu`; false when the OS refuses.
bool pin_current_thread(int cpu);

/// Ids of this process's threads (/proc/self/task), ascending.
[[nodiscard]] std::vector<int> thread_ids();

/// Pin thread `tid` of this process to `cpu`; false when refused.
bool pin_thread(int tid, int cpu);

/// Restricts the calling thread to `cpus` for the object's lifetime
/// (no-op when empty), then restores the mask it had.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const std::vector<int>& cpus);
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  std::vector<int> saved_;
};

}  // namespace perfbench
