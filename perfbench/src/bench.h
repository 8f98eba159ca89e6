// Shared pieces of the perfbench workloads: run configuration, sample
// statistics, the metric sink and the outcome accounting every workload
// reports through.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the span file is written to when `trace` is set ("" = none).
  std::string trace_dir;
};

/// \brief A bag of measurements of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Linear interpolation between the closest ranks; 0 when empty.
  double Percentile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] +
           (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Percentile(0.5); }

  /// The highest of p90 / p99 / p99.9 that still has at least ten samples
  /// beyond it; the median when even p90 has fewer.
  double TailQuantile() const {
    const double n = static_cast<double>(values_.size());
    for (double q : {0.999, 0.99, 0.9}) {
      if (n * (1.0 - q) >= 10.0) return q;
    }
    return 0.5;
  }
  double Tail() const { return Percentile(TailQuantile()); }

 private:
  std::vector<double> values_;
};

/// Geometric mean of positive values (non-positive ones are skipped).
inline double GeoMean(const std::vector<double>& values) {
  double log_sum = 0;
  int n = 0;
  for (double v : values) {
    if (v > 0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

/// \brief Latency samples grouped by operation kind ("Q18/Aggify+",
/// "fold_dop1", "QUERY udf", ...). Kinds keep insertion order.
class KindSamples {
 public:
  Samples& operator[](const std::string& kind) {
    auto it = index_.find(kind);
    if (it == index_.end()) {
      index_.emplace(kind, kinds_.size());
      kinds_.push_back({kind, Samples()});
      return kinds_.back().second;
    }
    return kinds_[it->second].second;
  }
  const std::vector<std::pair<std::string, Samples>>& kinds() const {
    return kinds_;
  }
  /// Geometric mean over kinds of each kind's `q` percentile.
  double GeoMeanOfPercentile(double q) const {
    std::vector<double> per_kind;
    for (const auto& [kind, samples] : kinds_) {
      if (!samples.empty()) per_kind.push_back(samples.Percentile(q));
    }
    return GeoMean(per_kind);
  }

 private:
  std::map<std::string, size_t> index_;
  std::vector<std::pair<std::string, Samples>> kinds_;
};

/// \brief Named metrics with units, in the order they were set.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_.emplace(name, entries_.size());
      entries_.push_back({name, value, unit});
    } else {
      entries_[it->second].value = value;
      entries_[it->second].unit = unit;
    }
  }
  /// A timing: `<name>.p50`, `<name>.tail` (TailQuantile) and `<name>.n`.
  void SetTiming(const std::string& name, const Samples& samples,
                 const std::string& unit) {
    Set(name + ".p50", samples.Median(), unit);
    Set(name + ".tail", samples.Tail(), unit);
    Set(name + ".n", static_cast<double>(samples.size()), "count");
  }

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, size_t> index_;
  std::vector<Entry> entries_;
};

/// \brief Moves the calling thread to the next CPU of its starting affinity
/// mask on every Next(); Restore() and the destructor give the mask back.
///
/// A single-threaded run otherwise stays on one core for tens of seconds,
/// and the cores of a shared host run at different speeds at the same
/// moment; rotating measures every operation kind on every core. Only DOP-1
/// work may run while rotated: a worker thread started then would inherit a
/// one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&start_);
    if (sched_getaffinity(0, sizeof(start_), &start_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &start_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Restore() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(start_), &start_);
  }
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t start_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// \brief Operation accounting plus the human-readable report lines.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// A workload-level check (leak, count invariant) failed.
  bool check_failed = false;
  int reported_failures = 0;

  /// One operation failed or returned a wrong answer.
  void Fail(const std::string& what) {
    ++failed;
    Note(what);
  }
  void FailCheck(const std::string& what) {
    check_failed = true;
    Note(what);
  }
  /// Prints a failure description (the first twenty of a run) to stderr.
  void Note(const std::string& what) {
    if (reported_failures++ < 20) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
  }
};

/// Formats a double with enough digits to round-trip.
inline std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints one human-readable report line (stdout, before the result).
void ReportLine(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
