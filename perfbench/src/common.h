// common.h — shared pieces of the benchmark: run options, clocks and process
// counters, quantiles, the span recorder and the result document.
//
// Everything here is the benchmark's own code. The library is driven only
// through its public entry points; spans are recorded around the calls the
// benchmark makes into a layer, never inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point start);
/// CPU time of the whole process (all threads) in milliseconds.
double process_cpu_ms();

/// splitmix64: every generated input and world seed derives from --seed
/// through this, so the same seed always yields the same inputs.
std::uint64_t mix(std::uint64_t x);
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

/// Threads the benchmark may keep busy (the thread-pool width).
std::size_t pool_width();

/// Moves the calling thread to the next CPU it may run on at every step(),
/// so the serial part of a workload spreads evenly over CPUs that a shared
/// host slows unevenly (a pinned loop can run 1.4x slower on one vCPU than
/// on another). With `hold`, the thread stays pinned until the next step:
/// steadier, but threads it starts would inherit the one-CPU mask, so hold
/// only around code that starts none. Without it the mask is restored at
/// once and the thread merely tends to stay where it was moved. The
/// destructor restores the original mask.
class CpuRotation {
 public:
  explicit CpuRotation(bool hold);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step();

 private:
  bool hold_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string result_path;  // JSON result document
  std::string spans_path;   // JSON-lines span dump (traced runs)
};

/// getrusage(RUSAGE_SELF) sample: CPU over all threads, context switches
/// and the process's peak resident set.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double vcsw = 0;
  double maxrss_mb = 0;

  static Usage now();
  double cpu_s() const { return user_s + sys_s; }
  Usage operator-(const Usage& o) const;
  Usage& operator+=(const Usage& o);
};

/// Quantile with linear interpolation between closest ranks (numpy's
/// default); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// A run's cost per batch (a fleet wave or an analysis pass) from its
/// per-batch samples. Host noise only ever adds time, and on a shared host
/// it adds a great deal: the same serial wave takes anywhere from 1x to 2x
/// its fastest time, wave to wave, with no change in the work. A serial
/// batch runs on one thread, so the run's fastest batch is its cost with the
/// least noise added. A parallel batch waits for the slowest of its workers
/// and so always carries some worker's noise; its cost is the median.
double batch_cost(const std::vector<double>& samples, bool serial);

/// In-memory span recorder. A span has a name, start, end, the span that
/// caused it and the id of the operation it belongs to. Spans are kept in
/// memory and written out once, when the run ends. Disabled tracers record
/// nothing and cost one branch per call.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost open span.
  std::uint32_t begin(const char* name, std::uint64_t op);
  void end(std::uint32_t id);
  /// Records an already-finished span under the innermost open span.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t op);

  /// Per span name: count, total and self milliseconds (self = duration
  /// minus the part of it covered by child spans).
  struct Totals {
    std::uint64_t count = 0;
    double self_ms = 0;
  };
  std::map<std::string, Totals> totals() const;

  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    std::uint64_t op;
  };
  std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), id_(tracer.begin(name, op)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Everything one run reports: metric values by name, named output checks,
/// the operation counts and the run context. run.py turns it into the
/// one-line result the benchmark prints.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> context;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value) { metrics[name] = value; }
  void check(const std::string& name, bool ok);
  bool correct() const;
  std::string to_json() const;
};

}  // namespace perfbench
