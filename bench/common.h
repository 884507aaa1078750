// common.h — shared helpers for the reproduction benches: table printing,
// paper-vs-measured agreement accounting, and the machine-readable
// BENCH_<name>.json emitter every bench binary writes next to its stdout
// tables (CI uploads these as artifacts).
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"  // LIBERATE_OBS_LEVEL (defaulted if CMake didn't set it)
#include "util/json.h"

// Short git SHA baked in by bench/CMakeLists.txt at configure time; a tarball
// build (no .git) reports "unknown".
#ifndef LIBERATE_GIT_SHA
#define LIBERATE_GIT_SHA "unknown"
#endif

namespace liberate::bench {

/// Tri-state cell: '1' = check mark, '0' = cross, '-' = not applicable.
inline const char* glyph(char c) {
  switch (c) {
    case '1':
      return "Y";
    case '0':
      return "x";
    default:
      return "-";
  }
}

struct Agreement {
  int compared = 0;
  int matched = 0;

  void tally(char expected, char measured) {
    if (expected == '-' || measured == '?') return;
    compared += 1;
    if (expected == measured) matched += 1;
  }
  double percent() const {
    return compared == 0 ? 100.0 : 100.0 * matched / compared;
  }
};

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  std::printf("\n");
  print_rule(78);
  std::printf("%s\n", title.c_str());
  print_rule(78);
}

/// Machine-readable results file: BENCH_<name>.json in the working
/// directory. Collects flat metrics plus labelled rows, all in insertion
/// order, and writes on destruction (or an explicit write()).
///
///   bench::JsonReport report("table3_matrix");
///   report.metric("agreement_pct", agreement.percent());
///   report.row("inert/ip-low-ttl");
///   report.field("cc", true);
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  ~JsonReport() { write(); }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void metric(const std::string& key, double v) { metrics_.push_back({key, Value::num(v)}); }
  void metric(const std::string& key, std::uint64_t v) { metrics_.push_back({key, Value::uint(v)}); }
  void metric(const std::string& key, int v) { metrics_.push_back({key, Value::integer(v)}); }
  void metric(const std::string& key, bool v) { metrics_.push_back({key, Value::boolean(v)}); }
  void metric(const std::string& key, const std::string& v) { metrics_.push_back({key, Value::str(v)}); }
  void metric(const std::string& key, const char* v) { metrics_.push_back({key, Value::str(v)}); }

  /// Start a new labelled row; subsequent field() calls attach to it.
  void row(const std::string& label) { rows_.push_back({label, {}}); }
  void field(const std::string& key, double v) { rows_.back().fields.push_back({key, Value::num(v)}); }
  void field(const std::string& key, std::uint64_t v) { rows_.back().fields.push_back({key, Value::uint(v)}); }
  void field(const std::string& key, int v) { rows_.back().fields.push_back({key, Value::integer(v)}); }
  void field(const std::string& key, bool v) { rows_.back().fields.push_back({key, Value::boolean(v)}); }
  void field(const std::string& key, const std::string& v) { rows_.back().fields.push_back({key, Value::str(v)}); }
  void field(const std::string& key, const char* v) { rows_.back().fields.push_back({key, Value::str(v)}); }

  std::string path() const { return "BENCH_" + name_ + ".json"; }

  /// Worker-thread count recorded in the context block. Benches that run a
  /// parallel scheduler should set this to the pool size they actually used;
  /// the default is the machine's concurrency (what a serial bench competes
  /// with for turbo headroom — still relevant when comparing runs).
  void set_workers(int workers) { workers_ = workers; }

  void write() {
    if (written_) return;
    written_ = true;
    JsonWriter w;
    w.begin_object();
    w.key("bench").value(name_);
    // Build/run context: tells a reader comparing two reports whether they
    // came from different commits, obs levels, or worker counts.
    w.key("context").begin_object();
    w.key("git_sha").value(LIBERATE_GIT_SHA);
    w.key("obs_level").value(static_cast<int>(LIBERATE_OBS_LEVEL));
    w.key("workers").value(workers_);
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto& m : metrics_) {
      w.key(m.first);
      m.second.emit(w);
    }
    w.end_object();
    w.key("rows").begin_array();
    for (const auto& r : rows_) {
      w.begin_object();
      w.key("label").value(r.label);
      for (const auto& f : r.fields) {
        w.key(f.first);
        f.second.emit(w);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::FILE* f = std::fopen(path().c_str(), "w");
    if (f == nullptr) return;  // read-only cwd: stdout tables still stand
    const std::string& doc = w.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path().c_str());
  }

 private:
  struct Value {
    enum class Kind { kNum, kUint, kInt, kBool, kStr } kind = Kind::kNum;
    double num_v = 0;
    std::uint64_t uint_v = 0;
    std::int64_t int_v = 0;
    bool bool_v = false;
    std::string str_v;

    static Value num(double v) { Value x; x.kind = Kind::kNum; x.num_v = v; return x; }
    static Value uint(std::uint64_t v) { Value x; x.kind = Kind::kUint; x.uint_v = v; return x; }
    static Value integer(std::int64_t v) { Value x; x.kind = Kind::kInt; x.int_v = v; return x; }
    static Value boolean(bool v) { Value x; x.kind = Kind::kBool; x.bool_v = v; return x; }
    static Value str(std::string v) { Value x; x.kind = Kind::kStr; x.str_v = std::move(v); return x; }

    void emit(JsonWriter& w) const {
      switch (kind) {
        case Kind::kNum: w.value(num_v); break;
        case Kind::kUint: w.value(uint_v); break;
        case Kind::kInt: w.value(int_v); break;
        case Kind::kBool: w.value(bool_v); break;
        case Kind::kStr: w.value(str_v); break;
      }
    }
  };
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, Value>> fields;
  };

  std::string name_;
  int workers_ = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<std::pair<std::string, Value>> metrics_;
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace liberate::bench
