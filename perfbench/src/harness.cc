#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

/// JSON string literal for span names and request ids (plain ASCII here;
/// quotes, backslashes and control characters are escaped anyway).
std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

uint64_t Tracer::Open() {
  const uint64_t id = next_id_++;
  open_.push_back(id);
  return id;
}

void Tracer::Close(uint64_t id, const char* name, const std::string& request,
                   Clock::time_point start, Clock::time_point end) {
  // Spans are RAII-scoped, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (!recording_) return;
  Event e;
  e.name = name;
  e.request = request;
  e.id = id;
  e.parent = open_.empty() ? 0 : open_.back();
  e.start_us = 1e6 * SecondsBetween(origin_, start);
  e.dur_us = 1e6 * SecondsBetween(start, end);
  events_.push_back(std::move(e));
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    const std::string layer = e.name.substr(0, e.name.find('.'));
    std::fprintf(f,
                 "  {\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"id\": "
                 "%llu, \"parent\": %llu, \"request\": %s}}%s\n",
                 Quoted(e.name).c_str(), Quoted(layer).c_str(), e.start_us,
                 e.dur_us, static_cast<unsigned long long>(e.id),
                 static_cast<unsigned long long>(e.parent),
                 Quoted(e.request).c_str(),
                 i + 1 < events_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

Span::Span(const char* name, std::string request)
    : name_(name), request_(std::move(request)) {
  id_ = GlobalTracer().Open();
  start_ = Clock::now();
}

double Span::Stop() {
  if (seconds_ >= 0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = SecondsBetween(start_, end);
  GlobalTracer().Close(id_, name_, request_, start_, end);
  return seconds_;
}

void Results::Set(const std::string& name, double value,
                  const std::string& unit) {
  metrics_[name] = Metric{value, unit, false};
}

void Results::SetExact(const std::string& name, double value,
                       const std::string& unit) {
  metrics_[name] = Metric{value, unit, true};
}

double Results::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Results::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", why.c_str());
  correct = false;
}

bool NeedAnotherPass(const RunConfig& cfg, const std::vector<PassTiming>& done,
                     Clock::time_point start) {
  const size_t min_passes = cfg.trace ? 2 : 1;
  return done.size() < min_passes ||
         SecondsBetween(start, Clock::now()) < cfg.seconds;
}

void ReportThroughput(const RunConfig& cfg,
                      const std::vector<PassTiming>& passes, Results* out) {
  std::vector<double> rates[2];  // per pass: untraced, traced
  std::printf("passes (ops/s):");
  for (const PassTiming& p : passes) {
    const double rate = p.seconds > 0 ? p.ops / p.seconds : 0;
    rates[p.traced].push_back(rate);
    std::printf(" %.4g%s", rate, p.traced ? "t" : "");
  }
  std::printf("\n");
  const double untraced = Median(rates[0]);
  out->Set("workflows_per_s", untraced, "1/s");
  if (!cfg.trace) return;
  const double traced = Median(rates[1]);
  out->Set("trace.workflows_per_s.untraced", untraced, "1/s");
  out->Set("trace.workflows_per_s.traced", traced, "1/s");
  out->Set("trace.overhead_frac", traced > 0 ? untraced / traced - 1 : 0,
           "ratio");
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
