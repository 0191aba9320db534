// Timing helpers for the benchmark: a monotonic nanosecond clock, sample
// summaries, and an in-memory span log (name, start, end, parent) that is
// written out when a traced run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SleepUntil(int64_t ns) {
  const int64_t now = NowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(std::vector<double>& v) { return Quantile(v, 0.5); }

// Samples of one timing, grouped by the time slice (or repetition) that
// took them.  The reported value is the lowest per-slice median: on a
// shared host, other tenants slow single CPUs for seconds at a time, and
// the median of the least disturbed slice repeats from run to run where the
// pooled median does not.
class SliceSamples {
 public:
  void Add(int64_t slice, double x) {
    by_slice_[slice].push_back(x);
    all_.push_back(x);
  }
  double BestSliceMedian() const {
    double best = 0;
    bool any = false;
    for (const auto& [slice, samples] : by_slice_) {
      std::vector<double> v = samples;
      const double m = Median(v);
      if (!any || m < best) best = m;
      any = true;
    }
    return best;
  }
  std::vector<double> all() const { return all_; }

 private:
  std::map<int64_t, std::vector<double>> by_slice_;
  std::vector<double> all_;
};

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int32_t parent;  // index into the same log, or -1
};

// Spans of one thread.  Not thread-safe: each thread records into its own
// log.  Past `capacity` spans, new ones are counted as dropped.
class SpanLog {
 public:
  SpanLog(int thread, size_t capacity) : thread_(thread), capacity_(capacity) {
    spans_.reserve(std::min<size_t>(capacity, 1 << 16));
  }

  int32_t Open(const char* name) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent});
    const int32_t index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }
  void Close(int32_t index) {
    if (index < 0) return;
    spans_[index].end = NowNs();
    open_.pop_back();
  }

  int thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  int thread_;
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t dropped_ = 0;
};

// RAII span; does nothing (and reads no clock) when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// Self time (duration minus the time its child spans cover), summed per
// layer.  A span's layer is its name up to the first '.'.
inline std::map<std::string, double> SelfMillisByLayer(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, double> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end != 0) child_ns[s.parent] += s.end - s.start;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].end == 0) continue;
      const std::string name = spans[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] +=
          static_cast<double>(spans[i].end - spans[i].start - child_ns[i]) / 1e6;
    }
  }
  return out;
}

// Tab-separated, one span per line after a header: thread, id (index in
// its thread), parent id (-1 for none), start and end in ns since `origin`,
// and name.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs, int64_t origin) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tid\tparent\tstart_ns\tend_ns\tname\n");
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%d\t%zu\t%d\t%lld\t%lld\t%s\n", log->thread(), i,
                   spans[i].parent,
                   static_cast<long long>(spans[i].start - origin),
                   static_cast<long long>(spans[i].end - origin), spans[i].name);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
