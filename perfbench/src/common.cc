#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/json.h"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  return mix(seed ^ mix(a + 1) ^ mix(mix(b + 2)));
}

std::size_t pool_width() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

namespace {

void set_cpus(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : cpus) CPU_SET(c, &mask);
  pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
}

}  // namespace

CpuRotation::CpuRotation(bool hold) : hold_(hold) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (hold_ && !cpus_.empty()) set_cpus(cpus_);
}

void CpuRotation::step() {
  if (cpus_.size() < 2) return;
  set_cpus({cpus_[next_]});
  if (!hold_) set_cpus(cpus_);
  next_ = (next_ + 1) % cpus_.size();
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.vcsw = static_cast<double>(ru.ru_nvcsw);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
  return u;
}

Usage Usage::operator-(const Usage& o) const {
  Usage d;
  d.user_s = user_s - o.user_s;
  d.sys_s = sys_s - o.sys_s;
  d.vcsw = vcsw - o.vcsw;
  d.maxrss_mb = maxrss_mb;
  return d;
}

Usage& Usage::operator+=(const Usage& o) {
  user_s += o.user_s;
  sys_s += o.sys_s;
  vcsw += o.vcsw;
  maxrss_mb = std::max(maxrss_mb, o.maxrss_mb);
  return *this;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0 : sum(values) / static_cast<double>(values.size());
}

double batch_cost(const std::vector<double>& samples, bool serial) {
  return quantile(samples, serial ? 0.0 : 0.5);
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return kNoParent;
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  const std::int64_t start = ns(Clock::now());
  spans_.push_back({name, start, start, parent, op});
  const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id == kNoParent) return;
  spans_[id].end_ns = ns(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t op) {
  if (!enabled_) return;
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({name, ns(start), ns(end), parent, op});
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
    Totals& t = out[spans_[i].name];
    t.count += 1;
    t.self_ms += ms - child_ms[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"op\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

void Result::check(const std::string& name, bool ok) {
  for (auto& [n, v] : checks) {
    if (n == name) {
      v = v && ok;
      return;
    }
  }
  checks.emplace_back(name, ok);
}

bool Result::correct() const {
  if (checks.empty()) return false;
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return true;
}

std::string Result::to_json() const {
  liberate::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct());
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("context").begin_object();
  for (const auto& [k, v] : context) w.key(k).value(v);
  w.end_object();
  w.key("checks").begin_object();
  for (const auto& [k, v] : checks) w.key(k).value(v);
  w.end_object();
  w.key("metrics").begin_object();
  for (const auto& [k, v] : metrics) {
    // Every digit as measured (JsonWriter::value keeps ten); NaN/inf are
    // not JSON and read as null.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    w.key(k).raw_value(std::isfinite(v) ? buf : "null");
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
