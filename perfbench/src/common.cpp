#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>

#include "perfbench.hpp"

namespace perfbench {

std::vector<double> Samples::sorted() const {
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  return s;
}

double Samples::median() const {
  if (v_.empty()) return 0;
  const std::vector<double> s = sorted();
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Samples::percentile(double p) const {
  if (v_.empty()) return 0;
  const std::vector<double> s = sorted();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(s.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return s[std::min(i, s.size() - 1)];
}

double Samples::tail_percentile(std::size_t n) {
  static constexpr double kCandidates[] = {99.9, 99.5, 99, 95, 90, 75};
  for (const double p : kCandidates) {
    // The epsilon keeps 10 000 x 0.1 % from rounding below ten samples.
    if (static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9 >= 10.0) return p;
  }
  return 50;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

bool Report::has(const std::string& name) const {
  for (const auto& [n, m] : items_) {
    if (n == name) return true;
  }
  return false;
}

std::string Report::json() const {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, m] = items_[i];
    // Non-finite values are not JSON; a ratio with an empty base reads 0.
    const double v = std::isfinite(m.first) ? m.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.second + "\"}";
  }
  return s + "}";
}

std::uint64_t SpanLog::open(std::string name, std::uint64_t parent,
                            std::uint64_t req, sim::Tick virt_now) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.req = req;
  s.name = std::move(name);
  s.host_start = host_now();
  s.virt_start = virt_now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id, sim::Tick virt_now) {
  Span& s = spans_.at(id - 1);
  s.host_end = host_now();
  s.virt_end = virt_now;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().host_start;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"req\": %llu, "
                 "\"name\": \"%s\", \"host_start_us\": %.3f, "
                 "\"host_end_us\": %.3f, \"virt_start_ns\": %lld, "
                 "\"virt_end_ns\": %lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.name.c_str(),
                 (s.host_start - t0) * 1e6, (s.host_end - t0) * 1e6,
                 static_cast<long long>(s.virt_start),
                 static_cast<long long>(s.virt_end),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {
SpanLog* g_spans = nullptr;
volatile std::uint64_t g_reference_sink = 0;
}  // namespace

SpanLog* spans() { return g_spans; }
void set_spans(SpanLog* log) { g_spans = log; }

void RunResult::fail(const std::string& why) {
  ++failed;
  if (++failure_notes <= 8) notes.push_back("FAILED " + why);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
  // splitmix64 finalizer over a running combination of the inputs.
  std::uint64_t x = seed;
  for (const std::uint64_t v : {a, b, c}) {
    x += 0x9e3779b97f4a7c15ULL + v;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
  }
  return x;
}

double reference_run_s() {
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  constexpr std::uint64_t kEvents = 150'000;
  constexpr std::size_t kLive = 256;
  const double t0 = host_now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::vector<char>> live(kLive);
  std::uint64_t seq = 0, fired = 0, touched = 0;
  for (std::uint64_t i = 0; i < 64; ++i) queue.push(Event{i, seq++, nullptr});
  while (seq < kEvents) {
    Event e = queue.top();
    queue.pop();
    if (e.fn) e.fn();
    std::vector<char>& buf = live[seq % kLive];
    buf.assign(64 + (seq * 7919) % 512, static_cast<char>(seq));
    touched += static_cast<unsigned char>(buf[buf.size() / 2]);
    queue.push(Event{e.at + 1 + (seq * 7919) % 97, seq, [&fired] { ++fired; }});
    ++seq;
  }
  const double dt = host_now() - t0;
  g_reference_sink = fired + touched;  // keeps the loop observable
  return dt;
}

double peak_rss_mb() {
  // Sessions run in child processes count too (the largest waited-for one).
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // ru_maxrss is in KB
}

}  // namespace perfbench
