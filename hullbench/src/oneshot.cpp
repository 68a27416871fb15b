// One-shot phase: ParallelHull::run on the workload's points, alternating
// the scheduler default (nproc workers) with WorkerLimit(1) rep by rep so
// both settings see the same host conditions. Every pair runs on a fresh
// random insertion order of the same points: the randomized algorithm's
// work depends on the order (on 400k ball points the visibility tests of
// one order ranged over 23M-32M across seeds, and the time with them), so
// a run's median is taken over many orders instead of resting on one.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "parhull/core/parallel_hull.h"
#include "parhull/geometry/plane_kernel.h"
#include "parhull/geometry/point_store.h"
#include "parhull/geometry/predicates.h"
#include "parhull/hull/baselines.h"
#include "parhull/hull/hull_common.h"
#include "parhull/verify/checkers.h"
#include "phases.h"

namespace hullbench {

using namespace parhull;

namespace {

// Sorted vertex tuples, each tuple ascending: the canonical facet set.
Tuples canonical(std::vector<std::array<PointId, 3>> facets) {
  for (auto& t : facets) std::sort(t.begin(), t.end());
  std::sort(facets.begin(), facets.end());
  return facets;
}

// Classification throughput of one cached plane over the whole point
// store: the inner loop of the conflict filters, without hull bookkeeping.
double sweep_mpts(const PointSet<3>& pts) {
  const PointStore<3> store(pts);
  const Plane<3> pl = make_plane<3>(pts, {0, 1, 2}, coord_bounds<3>(pts));
  const std::size_t count = pts.size() - 3;
  std::vector<std::int8_t> out(count);
  std::vector<double> rates;
  for (int r = 0; r < 9; ++r) {
    const auto t0 = Clock::now();
    classify_plane_side<3>(store, pl, nullptr, 3, count, out.data());
    rates.push_back(static_cast<double>(count) / seconds_since(t0) / 1e6);
  }
  return median(rates);
}

}  // namespace

Tuples snapshot_tuples(const HullSnapshot<3>& snap) {
  return canonical(canonical_snapshot_tuples<3>(snap));
}

Tuples survivor_oracle(const HullSnapshot<3>& snap) {
  PointSet<3> live;
  std::vector<PointId> ids;
  for (std::size_t i = 0; i < snap.point_count(); ++i) {
    const auto id = static_cast<PointId>(i);
    if (snap.is_deleted(id)) continue;
    live.push_back((*snap.points)[i]);
    ids.push_back(id);
  }
  if (!prepare_input_tracked<3>(live, ids)) return {};
  ParallelHull<3> hull;
  const auto res = hull.run(live);
  if (!res.ok) return {};
  Tuples out;
  out.reserve(res.hull.size());
  for (FacetId fid : res.hull) {
    std::array<PointId, 3> t{};
    for (std::size_t v = 0; v < 3; ++v) t[v] = ids[hull.facet(fid).vertices[v]];
    out.push_back(t);
  }
  return canonical(std::move(out));
}

void HullPhase::setup(SetupLog& log) {
  auto t0 = Clock::now();
  {
    Span span("workload.generate");
    pts_ = random_order(generate<3>(args_.dist, args_.sizes.hull_n, args_.seed),
                        args_.seed + 1);
  }
  log.add("gen", seconds_since(t0));
  t0 = Clock::now();
  bool prepared = false;
  {
    Span span("hull.prepare_input");
    prepared = prepare_input<3>(pts_);
  }
  log.add("prepare", seconds_since(t0));
  if (!prepared) throw std::runtime_error("hull input is degenerate");
  // Warm-up rep at the scheduler default: faults in the allocator arenas
  // and worker stacks, and gives the reference facet set.
  Span span("hull.warmup");
  ParallelHull<3> hull;
  const auto res = hull.run(pts_);
  if (!res.ok) throw std::runtime_error("warm-up hull run failed");
  reference_ = canonical_facet_tuples<3>(hull, res.hull);
}

void HullPhase::next_order() {
  const std::size_t n = pts_.size();
  std::vector<PointId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<PointId>(i);
  Rng rng(hash64(args_.seed ^ (0x0dde7ull + pairs_)));
  for (std::size_t i = n - 1; i > 0; --i) std::swap(ids[i], ids[rng.next_below(i + 1)]);
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) order_[i] = pts_[ids[i]];
  if (!prepare_input_tracked<3>(order_, ids)) {
    throw std::runtime_error("hull input is degenerate");
  }
  order_ids_ = std::move(ids);
}

void HullPhase::run_rep(int workers, std::vector<Rep>& out, Report& rep) {
  Scheduler::WorkerLimit limit(workers);
  // A T = 1 rep runs on the next CPU in turn; a T = nproc rep uses them all.
  std::optional<PinToCpu> pin;
  if (workers == 1) pin.emplace(pairs_);
  ParallelHull<3> hull;
  const std::uint64_t calls0 = predicate_calls();
  const std::uint64_t fb0 = predicate_exact_fallbacks();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  ParallelHull<3>::Result res;
  {
    Span span(workers == 1 ? "hull.run_t1" : "hull.run");
    res = hull.run(order_);
  }
  Rep r;
  r.wall_s = seconds_since(t0);
  r.cpu_s = process_cpu_s() - cpu0;
  r.mark = HostSpeed::get().mark();
  r.traced = Tracer::get().recording();
  rep.op(res.ok);
  if (!res.ok) {
    r.wall_s = kFailedMs * 1e-3;
    out.push_back(r);
    rep.check(false, std::string("hull run failed: ") + to_string(res.status));
    return;
  }
  out.push_back(r);
  if (res.used_chained_fallback) ++chained_runs_;
  if (!have_first_) {
    first_ = res;
    tests_ = predicate_calls() - calls0;
    fallbacks_ = predicate_exact_fallbacks() - fb0;
    have_first_ = true;
  }
  Tuples got = canonical_facet_tuples<3>(hull, res.hull);
  for (auto& t : got) {
    for (PointId& v : t) v = order_ids_[v];
  }
  rep.check(same_facets(args_, canonical(std::move(got)), reference_),
            "I1: facet set differs between reps, worker counts and orders");
}

void HullPhase::step(Report& rep) {
  // A traced run records every other pair, so the spans' cost shows as the
  // traced-minus-untraced difference.
  if (args_.trace) Tracer::get().set_recording(pairs_ % 2 == 0);
  next_order();
  run_rep(Scheduler::get().num_workers(), tn_, rep);
  run_rep(1, t1_, rep);
  ++pairs_;
}

void HullPhase::finish(Report& rep) {
  const int workers = Scheduler::get().num_workers();
  // Wall times at the reference host speed (see HostSpeed).
  auto walls = [](const std::vector<Rep>& reps, int traced) {
    std::vector<double> v;
    for (const Rep& r : reps) {
      if (traced < 0 || static_cast<int>(r.traced) == traced) {
        v.push_back(HostSpeed::get().adjust(r.wall_s, r.mark));
      }
    }
    return v;
  };
  const double hull_s = median(walls(tn_, -1));
  const double hull_t1_s = median(walls(t1_, -1));
  std::vector<double> cpu, busy;
  for (const Rep& r : tn_) {
    cpu.push_back(r.cpu_s);
    busy.push_back(r.cpu_s / (r.wall_s * workers));
  }
  rep.e2e("hull_s", hull_s, "s");
  rep.e2e("hull_t1_s", hull_t1_s, "s");

  const double n = static_cast<double>(pts_.size());
  rep.layer("geometry.tests", static_cast<double>(tests_), "count");
  rep.layer("geometry.tests_per_point", static_cast<double>(tests_) / n, "count");
  rep.layer("geometry.exact_fallbacks", static_cast<double>(fallbacks_), "count");
  rep.layer("geometry.bytes_computed", static_cast<double>(tests_) * 8.0 * 3.0,
            "bytes");
  rep.layer("geometry.sweep_mpts", sweep_mpts(pts_), "Mpts/s");
  rep.layer("core.facets_created", static_cast<double>(first_.facets_created), "count");
  rep.layer("core.conflicts", static_cast<double>(first_.total_conflicts), "count");
  rep.layer("core.buried_pairs", static_cast<double>(first_.buried_pairs), "count");
  rep.layer("core.finalized_ridges", static_cast<double>(first_.finalized_ridges),
            "count");
  rep.layer("core.depth", first_.dependence_depth, "count");
  rep.layer("core.rounds", first_.max_round, "count");
  rep.layer("containers.regrows", first_.regrows, "count");
  rep.layer("containers.chained_runs", static_cast<double>(chained_runs_), "count");
  rep.layer("parallel.speedup", hull_t1_s / hull_s, "ratio");
  rep.layer("parallel.cpu_s", median(cpu), "s");
  rep.layer("parallel.busy_frac", median(busy), "ratio");
  if (args_.trace) {
    rep.layer("trace.hull_overhead_frac",
              median(walls(tn_, 1)) / median(walls(tn_, 0)) - 1.0, "ratio");
  }
}

void HullPhase::verify(Report& rep) {
  const std::size_t n = pts_.size();
  rep.check(check_euler3d(reference_).ok, "Euler characteristic V - E + F != 2");
  if (args_.dist == Distribution::kOnSphere) {
    rep.check(reference_.size() == 2 * n - 4,
              "sphere hull does not have 2n - 4 facets");
  }
  const QuickHull3DResult qh = quickhull3d(pts_);
  rep.check(qh.ok, "quickhull3d failed");
  rep.check(qh.facets.size() == reference_.size(),
            "facet count differs from quickhull3d");
  Tuples qh_set;
  for (const auto& f : qh.facets) qh_set.push_back({f[0], f[1], f[2]});
  rep.check(same_facets(args_, reference_, canonical(std::move(qh_set))),
            "facet set differs from quickhull3d");
}

}  // namespace hullbench
