#include "host.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace perfbench {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

bool pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec))
    ids.push_back(std::stoi(e.path().filename().string()));
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool pin_thread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

namespace {
void set_mask(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}
}  // namespace

ScopedAffinity::ScopedAffinity(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) saved_.push_back(c);
  set_mask(cpus);
}

ScopedAffinity::~ScopedAffinity() {
  if (!saved_.empty()) set_mask(saved_);
}

HostFingerprint host_fingerprint() {
  HostFingerprint h;
  h.nproc = static_cast<unsigned>(allowed_cpus().size());
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(colon + 1);
        h.cpu_model.erase(0, h.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

}  // namespace perfbench
