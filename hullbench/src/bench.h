// Shared plumbing of the hullbench program: command-line arguments, the
// workload size table, sample statistics, the metric report with its
// failure and correctness accounting, the in-memory span tracer, and the
// host probes (process CPU time, host steal, the host-speed probe) that
// make drift attributable and adjust the gated timings for it.
#pragma once

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "parhull/common/types.h"
#include "parhull/geometry/point.h"
#include "parhull/workload/generators.h"

namespace hullbench {

using Clock = std::chrono::steady_clock;
using Tuples = std::vector<std::array<parhull::PointId, 3>>;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Input sizes of one workload. Both workloads run the same three phases
// (one-shot hull, engine stream, service); only the one-shot hull's size
// differs, because a sphere hull has a facet for every two points.
struct Sizes {
  std::size_t hull_n = 0;        // one-shot hull input
  std::size_t stream_n0 = 0;     // engine bootstrap for the stream
  std::size_t ingest_n = 0;      // phase (a): points ingested in 64 batches
  std::size_t ingest_batches = 64;
  std::size_t stream_batch = 64;  // phase (b): points per insert / delete
  std::size_t query_block = 0;    // queries after every phase (b) batch
  std::size_t min_stream_pairs = 100;  // p90 needs 10 samples beyond it
  std::size_t tenant_n = 0;       // service: bootstrap points per tenant
  std::size_t tenants = 2;
  std::size_t connections = 4;
  std::size_t insert_points = 16;  // points per service insert frame
  std::size_t delete_ids = 16;     // ids per service delete frame
};

struct Args {
  std::string workload;  // "ball" or "sphere"
  parhull::Distribution dist = parhull::Distribution::kUniformBall;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;          // tiny sizes, for the benchmark's own tests
  bool plant_drop_facet = false;  // test hook: corrupt every compared set
  std::string work_dir = ".";    // durable tenant data goes under here
  std::string trace_out;       // span file written at exit (traced runs)
  Sizes sizes;
};

// --- sample statistics ---------------------------------------------------

// Linear-interpolated quantile, q in [0, 1]. Empty input reads 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- host probes ---------------------------------------------------------

// Process CPU time (user + system, every thread).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// Host-wide jiffies from /proc/stat's aggregate line: total and steal.
// Steal is CPU time the hypervisor gave to someone else while this guest
// wanted it; when it rises, wall time rises with CPU time flat.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
inline CpuJiffies read_jiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return j;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    // Fields 8 and 9 (guest, guest_nice) are already counted in user/nice.
    if (field < 8) j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}
inline double steal_frac(const CpuJiffies& a, const CpuJiffies& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

// Time the calling thread has spent runnable but waiting for a CPU in this
// kernel's run queues (/proc/thread-self/schedstat; 0 where the kernel does
// not keep it). Time the hypervisor took a CPU away is not in it.
inline double runqueue_wait_s() {
  std::ifstream in("/proc/thread-self/schedstat");
  std::uint64_t run_ns = 0, wait_ns = 0;
  if (!(in >> run_ns >> wait_ns)) return 0;
  return static_cast<double>(wait_ns) * 1e-9;
}

// Pins the calling thread to one CPU for its lifetime, then restores its
// affinity. The single-threaded hull reps and the host-speed probes rotate
// over every CPU the process may use, so a run's figure does not rest on
// the one CPU the main thread happened to stay on: on a shared host the
// CPUs' speeds differ by up to 20%, and change.
class PinToCpu {
 public:
  explicit PinToCpu(std::size_t turn) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[turn % cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// Host-speed adjustment of the gated timings.
//
// On a shared host the speed a process gets drifts and jumps by 15-30%
// over seconds to minutes (other tenants' load on the shared cores,
// caches and memory), and no number of repetitions inside one run averages
// that out. So the run takes a probe every kEvery_s on the main thread,
// between steps, each probe on the next CPU in turn (see PinToCpu): a
// fixed single-threaded kernel that calls no library code, so no change to
// the program can move it. It has three parts of about
// 5 ms each, one per kind of work the hull, engine and service spend their
// time in: a plane-side sweep over 512k points (24 MB, streamed) followed
// by 128k random inserts into an 8 MB open-addressing table (memory);
// mapping, touching and unmapping 8 MB of fresh pages (page faults); and a
// chain of 2M dependent multiply-adds (the core's clock). It is timed by
// wall time less the time its thread waited in this kernel's run queue, so
// the program's own threads that compete for its CPU do not slow it, while
// time the hypervisor gives the CPU to someone else (steal) does.
// Each timed sample is scaled by kReference_s over the median of the
// kWindow probes before it and the kWindow after it (about a second each
// way): the figure reads as the time on a host where one probe takes
// kReference_s.
class HostSpeed {
 public:
  static constexpr double kEvery_s = 0.5;
  static constexpr std::size_t kWindow = 2;
  static constexpr double kReference_s = 0.015;

  static HostSpeed& get() {
    static HostSpeed h;
    return h;
  }

  // Has kEvery_s passed since the last probe?
  bool due() const { return probes_.empty() || seconds_since(last_) >= kEvery_s; }

  // Probes taken so far: a sample timed now lies between probe mark() - 1
  // and probe mark().
  std::size_t mark() const { return probes_.size(); }

  // `time`, taken when mark() was `mark`, at the reference speed. Call
  // after the probes that follow the sample.
  double adjust(double time, std::size_t mark) const {
    if (probes_.empty()) return time;
    const std::size_t hi = std::min(mark + kWindow, probes_.size());
    const std::size_t lo = std::min(mark > kWindow ? mark - kWindow : 0, hi - 1);
    std::vector<double> window;
    for (std::size_t i = lo; i < hi; ++i) window.push_back(probes_[i]);
    return time * kReference_s / median(window);
  }

  double median_probe_s() const { return median(probes_); }

  // Take one probe now, on the next CPU in turn.
  void probe() {
    PinToCpu pin(probes_.size());
    const double wait0 = runqueue_wait_s();
    const auto t0 = Clock::now();
    std::size_t above = 0;
    for (std::size_t i = 0; i < kPoints; ++i) {
      const double* p = &pts_[3 * i];
      above += 0.31 * p[0] - 0.57 * p[1] + 0.76 * p[2] > 0.01 ? 1 : 0;
    }
    std::fill(table_.begin(), table_.end(), 0);
    std::uint64_t s = 0x2545f4914f6cdd1dull;
    for (std::size_t k = 0; k < kKeys; ++k) {
      const std::uint64_t key = (s = next(s)) | 1;
      std::size_t at = key & (kSlots - 1);
      while (table_[at] != 0 && table_[at] != key) at = (at + 1) & (kSlots - 1);
      table_[at] = key;
    }
    void* fresh = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (fresh != MAP_FAILED) {
      auto* bytes = static_cast<volatile char*>(fresh);
      for (std::size_t at = 0; at < kFaultBytes; at += 4096) bytes[at] = 1;
      munmap(fresh, kFaultBytes);
    }
    double y = sink_chain_;
    for (std::size_t i = 0; i < kChain; ++i) y = y * 0.999999 + 1e-7;
    probes_.push_back(seconds_since(t0) - (runqueue_wait_s() - wait0));
    sink_ = above;
    sink_chain_ = y;
    last_ = Clock::now();
  }

 private:
  HostSpeed() : pts_(3 * kPoints), table_(kSlots) {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    for (double& x : pts_) x = static_cast<double>((s = next(s)) >> 11) * 0x1.0p-53 - 0.5;
  }

  static constexpr std::size_t kPoints = 1u << 19;
  static constexpr std::size_t kSlots = 1u << 20;
  static constexpr std::size_t kKeys = 1u << 17;
  static constexpr std::size_t kFaultBytes = 8u << 20;
  static constexpr std::size_t kChain = 2000000;
  static std::uint64_t next(std::uint64_t s) {
    s ^= s << 13;
    s ^= s >> 7;
    return s ^ (s << 17);
  }
  std::vector<double> pts_;
  std::vector<std::uint64_t> table_;
  std::vector<double> probes_;
  Clock::time_point last_{};
  // Keep the sweep and the chain from being optimised away.
  volatile std::size_t sink_ = 0;
  volatile double sink_chain_ = 1.0;
};

// A timed sample (in any unit) and the probe mark it was taken at.
struct Timed {
  double value;
  std::size_t mark;
};
inline Timed timed(double value) { return {value, HostSpeed::get().mark()}; }
inline std::vector<double> raw(const std::vector<Timed>& v) {
  std::vector<double> out;
  for (const Timed& t : v) out.push_back(t.value);
  return out;
}
inline std::vector<double> adjusted(const std::vector<Timed>& v) {
  std::vector<double> out;
  for (const Timed& t : v) out.push_back(HostSpeed::get().adjust(t.value, t.mark));
  return out;
}

// --- report --------------------------------------------------------------

// Every metric hullbench reports, end-to-end or per-layer. The final JSON
// line carries the end-to-end set on an untraced run and the per-layer set
// on a traced run; the other set goes to a `diagnostics` line just above,
// so drift diagnostics are on record for every run.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit) {
    add(name, value, unit, true);
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    add(name, value, unit, false);
  }

  // Failure accounting: one call per operation the workload issued.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  // Correctness gate: any false check marks the run incorrect.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "hullbench: correctness check failed: %s\n",
                 what.c_str());
  }
  bool correct() const { return correct_; }

  void print(bool trace) const {
    std::ostringstream diag;
    diag << "diagnostics: ";
    write_metrics(diag, !trace);
    std::printf("%s\n", diag.str().c_str());
    std::ostringstream line;
    line << "{\"correct\": " << (correct_ ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": ";
    write_metrics(line, trace);
    line << "}";
    std::printf("%s\n", line.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool end_to_end;
  };

  // A value that is not a finite number means its samples were missing:
  // the run is not a measurement, and JSON has no spelling for it.
  void add(const std::string& name, double value, const std::string& unit,
           bool end_to_end) {
    check(std::isfinite(value), "metric " + name + " is not a finite number");
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, end_to_end});
  }

  // trace == true selects the per-layer set.
  void write_metrics(std::ostringstream& os, bool trace) const {
    os << "{";
    bool first = true;
    char buf[64];
    for (const Metric& m : metrics_) {
      if (m.end_to_end == trace) continue;
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    os << "}";
  }

  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// Facet-set comparison used by every correctness gate. The planted fault
// drops one facet from `got` first, which must make the gate fail.
inline bool same_facets(const Args& args, Tuples got, const Tuples& want) {
  if (args.plant_drop_facet && !got.empty()) got.pop_back();
  return got == want;
}

// --- tracing -------------------------------------------------------------

// In-memory spans recorded by hullbench around its calls into each layer.
// Single-threaded by construction: every span opens and closes on the
// program's main thread (the service client loop runs there too). Written
// out once, at exit, in Chrome trace-event format.
class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  // Master switch (the --trace flag) and the per-repetition toggle the
  // traced run flips to measure its own overhead.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  std::uint32_t open(const char* name, std::uint64_t request) {
    if (!recording_) return kNone;
    const std::uint32_t parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back({name, now_us(), 0, parent, request});
    const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void close(std::uint32_t id) {
    if (id == kNone) return;
    spans_[id].end_us = now_us();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  // A span whose start and end were measured elsewhere (a service frame:
  // sent and answered while other frames were in flight on the same
  // thread, so it cannot nest in the open/close stack).
  void record(const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t request) {
    if (!recording_) return;
    const std::uint32_t parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back({name, to_us(start), to_us(end), parent, request});
  }

  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << std::fixed;
    os.precision(3);  // microseconds, to the nanosecond
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.start_us
         << ", \"dur\": " << (s.end_us - s.start_us) << ", \"args\": {\"span\": "
         << i << ", \"parent\": "
         << (s.parent == kNone ? -1 : static_cast<long long>(s.parent))
         << ", \"request\": " << s.request << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct SpanRec {
    const char* name;
    double start_us;
    double end_us;
    std::uint32_t parent;
    std::uint64_t request;
  };
  double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double now_us() const { return to_us(Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  bool recording_ = false;
  std::vector<SpanRec> spans_;
  std::vector<std::uint32_t> stack_;
};

// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : id_(Tracer::get().open(name, request)) {}
  ~Span() { Tracer::get().close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

}  // namespace hullbench
