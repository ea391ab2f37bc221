#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

namespace perfbench {

void TraceSink::add(const Span& s) {
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() < capacity_)
    spans_.push_back(s);
  else
    ++dropped_;
}

void TraceSink::add(const std::vector<Span>& batch) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t room = capacity_ - std::min(capacity_, spans_.size());
  const std::size_t take = std::min(room, batch.size());
  spans_.insert(spans_.end(), batch.begin(),
                batch.begin() + static_cast<std::ptrdiff_t>(take));
  dropped_ += batch.size() - take;
}

std::uint64_t TraceSink::next_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

std::size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

void TraceSink::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) throw std::runtime_error("trace: cannot open " + path);
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ns\",\"otherData\":"
                        "{\"dropped_spans\":%llu},\"traceEvents\":[",
               static_cast<unsigned long long>(dropped_));
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f.get(),
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 first ? "" : ",", s.name, s.lane,
                 static_cast<double>(s.start_ns - t0) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fprintf(f.get(), "\n]}\n");
  if (std::ferror(f.get())) throw std::runtime_error("trace: write failed");
}

}  // namespace perfbench
