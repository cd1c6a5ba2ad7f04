// Shared pieces of the repository benchmark: run settings, the span tracer
// (Chrome trace-event JSON), the metric sink every workload fills, and the
// small statistics the workloads report (median, percentile, geomean).
//
// Spans are recorded only from the benchmark's own code, around each call
// into a layer's public function; the library itself is not instrumented.
// All spans are opened and closed on the benchmark's main thread, which
// submits work serially, so the tracer needs no locking.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Settings of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: alternate untraced and traced passes, record spans on the
  /// traced ones, and report per-layer metrics.
  bool trace = false;
  /// Shortened configuration for the determinism self-check.
  bool shortened = false;
  int threads = 1;
  /// Directory for the span file and the catalog probe's file.
  std::string out_dir = ".";
};

/// In-memory span buffer, written out once at the end of a run.
class Tracer {
 public:
  struct Event {
    std::string name;     ///< "<layer>.<call>", e.g. "optimizer.Optimize"
    std::string request;  ///< shared id of one workflow or request
    uint64_t id = 0;
    uint64_t parent = 0;  ///< enclosing span id, 0 at top level
    double start_us = 0;  ///< since the tracer was created
    double dur_us = 0;
  };

  /// Spans are recorded only while recording is on; timing is unaffected.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  /// Opens a span and makes it the parent of spans opened before Close.
  uint64_t Open();
  void Close(uint64_t id, const char* name, const std::string& request,
             Clock::time_point start, Clock::time_point end);

  const std::vector<Event>& events() const { return events_; }

  /// Writes {"traceEvents": [...]} (complete "X" events, microseconds).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool recording_ = false;
  uint64_t next_id_ = 1;
  std::vector<uint64_t> open_;
  std::vector<Event> events_;
  Clock::time_point origin_ = Clock::now();
};

/// The process-wide tracer the Span helper records into.
Tracer& GlobalTracer();

/// Times one call into a layer. Stop() (or destruction) ends the span and
/// records it when the tracer is recording. Spans nest in LIFO order.
class Span {
 public:
  explicit Span(const char* name, std::string request = {});
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Stop();

 private:
  const char* name_;
  std::string request_;
  uint64_t id_ = 0;
  Clock::time_point start_;
  double seconds_ = -1;
};

/// Metric sink of one workload run.
class Results {
 public:
  struct Metric {
    double value = 0;
    std::string unit;
    /// A pure function of the inputs: identical at any thread count and on
    /// every run with the same seed (counts, simulated makespans).
    bool deterministic = false;
  };

  void Set(const std::string& name, double value, const std::string& unit);
  void SetExact(const std::string& name, double value,
                const std::string& unit = "count");
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  double Get(const std::string& name) const;

  /// One operation finished; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A check outside any operation failed (e.g. a determinism check).
  void Fail(const std::string& why);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

 private:
  std::map<std::string, Metric> metrics_;
};

/// One timed pass: a sweep over all of a workload's operations.
struct PassTiming {
  int ops = 0;
  double seconds = 0;  ///< summed operation time (checks excluded)
  bool traced = false;
};

/// True while another pass should run: until `cfg.seconds` of wall time
/// have elapsed since `start`, and at least one pass (two in a traced run,
/// so there is one of each kind).
bool NeedAnotherPass(const RunConfig& cfg, const std::vector<PassTiming>& done,
                     Clock::time_point start);

/// Whether pass `index` records spans: every other pass of a traced run.
inline bool PassIsTraced(const RunConfig& cfg, size_t index) {
  return cfg.trace && index % 2 == 1;
}

/// Sets workflows_per_s (from the untraced passes) and, in a traced run,
/// the tracing overhead: trace.workflows_per_s.{untraced,traced} and
/// trace.overhead_frac (extra time per operation with spans recorded).
void ReportThroughput(const RunConfig& cfg,
                      const std::vector<PassTiming>& passes, Results* out);

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Percentile(std::vector<double> v, double q);
double Geomean(const std::vector<double>& v);
double Sum(const std::vector<double>& v);
/// getrusage max resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
