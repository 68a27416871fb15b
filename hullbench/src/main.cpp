// hullbench: the repository's end-to-end benchmark program.
//
//   hullbench --workload ball|sphere --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--smoke]
//             [--plant drop-facet]
//
// Sets up three times (generate, prepare, warm-up rep, engine bootstrap,
// server start, tenant bootstrap, connect) and reports the median as
// setup_s, then interleaves the hull, stream and service phases for fixed
// shares of S seconds, checks every output, and prints one JSON result line.
// A host-speed probe runs around every set-up round and between turns every
// half second; the gated timings are reported at the reference host speed
// (see HostSpeed).
// README.md in this directory describes workloads, metrics and layers.
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>

#include "parhull/parallel/scheduler.h"
#include "phases.h"

using namespace hullbench;

namespace {

// Share of --seconds each phase measures for, and the length of one
// service turn.
constexpr double kHullShare = 0.35;
constexpr double kIngestShare = 0.25;
constexpr double kStreamShare = 0.25;
constexpr double kServiceShare = 0.15;
constexpr double kServiceSlice_s = 1.0;
// No gated median rests on fewer samples than this.
constexpr std::size_t kMinHullPairs = 3;
constexpr std::size_t kMinIngestReps = 3;
constexpr int kSetupRounds = 3;

Sizes sizes_for(parhull::Distribution dist, bool smoke) {
  Sizes s;
  if (smoke) {
    s.hull_n = 5000;
    s.stream_n0 = 2000;
    s.ingest_n = 2000;
    s.query_block = 20;
    s.min_stream_pairs = 5;
    s.tenant_n = 500;
  } else {
    // Ball: interior-heavy, h << n, conflict filtering dominates. Sphere:
    // every point a vertex, 2n - 4 facets, ridge map and facet pool
    // dominate.
    s.hull_n = dist == parhull::Distribution::kUniformBall ? 400000 : 100000;
    s.stream_n0 = 200000;
    s.ingest_n = 100000;
    s.query_block = 2000;
    s.tenant_n = 20000;
  }
  return s;
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "hullbench: " << why
            << "\nusage: hullbench --workload ball|sphere --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE] [--smoke] "
               "[--plant drop-facet]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--plant") {
      if (value() != "drop-facet") usage("the only planted fault is drop-facet");
      a.plant_drop_facet = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.workload == "ball") {
    a.dist = parhull::Distribution::kUniformBall;
  } else if (a.workload == "sphere") {
    a.dist = parhull::Distribution::kOnSphere;
  } else {
    usage("unknown workload");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  a.sizes = sizes_for(a.dist, a.smoke);
  return a;
}

int run(const Args& args) {
  // The scheduler's constructing thread becomes worker 0: build it here,
  // on the thread that runs every hull.
  parhull::Scheduler::get();
  Tracer::get().set_recording(args.trace);
  const CpuJiffies host0 = read_jiffies();
  Report rep;

  // Probes around every set-up round and, every half second, between the
  // turns below (see HostSpeed).
  HostSpeed& speed = HostSpeed::get();
  speed.probe();
  SetupLog log;
  std::vector<Timed> setup_s;
  std::unique_ptr<HullPhase> hull;
  std::unique_ptr<StreamPhase> stream;
  std::unique_ptr<ServicePhase> service;
  for (int r = 0; r < (args.smoke ? 1 : kSetupRounds); ++r) {
    service.reset();
    stream.reset();
    hull.reset();
    log.round = static_cast<std::size_t>(r);
    const auto t0 = Clock::now();
    Span span("setup");
    hull = std::make_unique<HullPhase>(args);
    hull->setup(log);
    stream = std::make_unique<StreamPhase>(args);
    stream->setup(log);
    service = std::make_unique<ServicePhase>(args);
    service->setup(log);
    setup_s.push_back(timed(seconds_since(t0)));
    speed.probe();
  }
  rep.e2e("setup_s", median(adjusted(setup_s)), "s");
  rep.layer("workload.gen_s", median(log.rounds["gen"]), "s");
  rep.layer("hull.prepare_s", median(log.rounds["prepare"]), "s");
  rep.layer("engine.bootstrap_s", median(log.rounds["engine_bootstrap"]), "s");
  rep.layer("service.bootstrap_s", median(log.rounds["tenant_bootstrap"]), "s");
  rep.layer("service.connect_ms", median(log.rounds["connect"]) * 1e3, "ms");

  // Interleave the phases' steps over the whole run: each turn goes to
  // the phase furthest behind its share of the time spent so far, until
  // --seconds is up and every phase has its minimum sample count.
  struct Lane {
    const char* span;
    double share;
    std::function<void()> step;
    std::function<bool()> has_minimum;  // enough samples to stop
    double spent = 0;
  };
  stream->begin(rep);
  service->begin();
  std::vector<Lane> lanes = {
      {"phase.service", kServiceShare, [&] { service->slice(kServiceSlice_s, rep); },
       [] { return true; }},
      {"phase.hull", kHullShare, [&] { hull->step(rep); },
       [&] { return hull->steps() >= kMinHullPairs; }},
      {"phase.ingest", kIngestShare, [&] { stream->ingest_step(rep); },
       [&] { return stream->ingest_steps() >= kMinIngestReps; }},
      {"phase.stream", kStreamShare, [&] { stream->stream_step(rep); },
       [&] { return stream->stream_steps() >= args.sizes.min_stream_pairs; }},
  };
  const auto t0 = Clock::now();
  for (;;) {
    if (speed.due()) {
      Span span("host.probe");
      speed.probe();
    }
    const bool time_left = seconds_since(t0) < args.seconds;
    Lane* next = nullptr;
    for (Lane& l : lanes) {
      if (!time_left && l.has_minimum()) continue;
      if (next == nullptr || l.spent / l.share < next->spent / next->share) next = &l;
    }
    if (next == nullptr) break;
    const auto s0 = Clock::now();
    {
      Span span(next->span);
      next->step();
    }
    Tracer::get().set_recording(args.trace);
    next->spent += seconds_since(s0);
  }
  speed.probe();  // the probe after the last turn's samples
  service->finish(rep);
  hull->finish(rep);
  stream->finish(rep);

  service->verify(rep);
  service.reset();
  hull->verify(rep);
  hull.reset();
  stream->verify(rep);
  stream.reset();

  rep.layer("host.probe_ms", speed.median_probe_s() * 1e3, "ms");
  rep.layer("host.speed", HostSpeed::kReference_s / speed.median_probe_s(), "ratio");
  rep.layer("host.steal_frac", steal_frac(host0, read_jiffies()), "ratio");
  if (args.trace) {
    rep.layer("trace.spans", static_cast<double>(Tracer::get().size()), "count");
    if (!args.trace_out.empty() && !Tracer::get().write(args.trace_out)) {
      std::cerr << "hullbench: cannot write " << args.trace_out << "\n";
      return 2;
    }
  }
  rep.print(args.trace);
  return rep.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "hullbench: " << e.what() << "\n";
    return 2;
  }
}
