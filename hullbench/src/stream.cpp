// Stream phase: one HullEngine<3> tenant on ball points. (a) A second,
// fresh engine ingests a point set in 64 equal insert_batch calls; (b) the bootstrapped
// engine takes alternating small insert and delete batches, and after each
// one a block of point_in_hull / extreme_point queries runs on the freshly
// published snapshot.
#include <algorithm>
#include <stdexcept>

#include "parhull/core/parallel_hull.h"
#include "parhull/engine/query.h"
#include "parhull/hull/hull_common.h"
#include "phases.h"

namespace hullbench {

using namespace parhull;

namespace {

bool contains(const std::vector<PointId>& v, PointId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

}  // namespace

void StreamPhase::setup(SetupLog& log) {
  const Sizes& sz = args_.sizes;
  rng_ = Rng(hash64(args_.seed ^ 0x5eed5eedull));
  auto t0 = Clock::now();
  PointSet<3> boot, ingest;
  {
    Span span("workload.generate");
    boot = random_order(generate<3>(kEngineDist, sz.stream_n0, args_.seed + 2),
                        args_.seed + 3);
    ingest = random_order(generate<3>(kEngineDist, sz.ingest_n, args_.seed + 4),
                          args_.seed + 5);
  }
  log.add("gen", seconds_since(t0));
  t0 = Clock::now();
  {
    Span span("hull.prepare_input");
    if (!prepare_input<3>(boot) || !prepare_input<3>(ingest)) {
      throw std::runtime_error("stream input is degenerate");
    }
  }
  log.add("prepare", seconds_since(t0));
  ingest_chunks_.assign(sz.ingest_batches, PointSet<3>());
  const std::size_t per = sz.ingest_n / sz.ingest_batches;
  for (std::size_t b = 0; b < sz.ingest_batches; ++b) {
    const auto first = ingest.begin() + static_cast<std::ptrdiff_t>(b * per);
    const auto last = b + 1 == sz.ingest_batches
                          ? ingest.end()
                          : first + static_cast<std::ptrdiff_t>(per);
    ingest_chunks_[b].assign(first, last);
  }

  t0 = Clock::now();
  engine_ = std::make_unique<HullEngine<3>>();
  {
    Span span("engine.bootstrap");
    if (!engine_->insert_batch(boot).ok) {
      throw std::runtime_error("stream engine bootstrap failed");
    }
  }
  log.add("engine_bootstrap", seconds_since(t0));
  live_.resize(boot.size());
  live_pos_.resize(boot.size());
  for (std::size_t i = 0; i < boot.size(); ++i) {
    live_[i] = static_cast<PointId>(i);
    live_pos_[i] = static_cast<std::uint32_t>(i);
  }
}

void StreamPhase::drop_live(PointId id) {
  const std::uint32_t at = live_pos_[id];
  const PointId last = live_.back();
  live_[at] = last;
  live_pos_[last] = at;
  live_.pop_back();
}

// Half hull vertices of the current snapshot, half any live ids: deletes
// that re-close the hull and deletes that only flip tombstones.
std::vector<PointId> StreamPhase::pick_deletions() {
  const std::size_t want = args_.sizes.stream_batch;
  auto snap = engine_->snapshot();
  std::vector<PointId> out;
  for (std::size_t tries = 0; out.size() < want / 2 && tries < 64 * want; ++tries) {
    const auto& f = snap->facets[rng_.next_below(snap->facets.size())];
    const PointId v = f.vertices[rng_.next_below(3)];
    if (!contains(out, v)) out.push_back(v);
  }
  while (out.size() < want) {
    const PointId id = live_[rng_.next_below(live_.size())];
    if (!contains(out, id)) out.push_back(id);
  }
  return out;
}

void StreamPhase::begin(Report& rep) {
  PointSet<3> all;
  for (const PointSet<3>& c : ingest_chunks_) all.insert(all.end(), c.begin(), c.end());
  ParallelHull<3> hull;
  const auto res = hull.run(all);
  rep.check(res.ok, "one-shot hull of the ingest points failed");
  if (!res.ok) return;
  ingest_reference_ = canonical_facet_tuples<3>(hull, res.hull);
  ingest_oneshot_tests_ = res.visibility_tests;
}

void StreamPhase::ingest_step(Report& rep) {
  HullEngine<3> engine;
  double total = 0, max_ms = 0;
  std::uint64_t tests = 0;
  for (const PointSet<3>& chunk : ingest_chunks_) {
    const auto t0 = Clock::now();
    HullEngine<3>::BatchResult res;
    {
      Span span("engine.insert_batch");
      res = engine.insert_batch(chunk);
    }
    const double ms = res.ok ? seconds_since(t0) * 1e3 : kFailedMs;
    rep.op(res.ok);
    ingest_batch_ms_.push_back(ms);
    max_ms = std::max(max_ms, ms);
    total += ms * 1e-3;
    tests += res.visibility_tests;
  }
  ingest_totals_.push_back(timed(total));
  ingest_batch_max_.push_back(max_ms);
  ingest_tests_ = tests;
  auto snap = engine.snapshot();
  rep.check(snap != nullptr &&
                same_facets(args_, snapshot_tuples(*snap), ingest_reference_),
            "I9: ingested facet set differs from the one-shot hull");
}

void StreamPhase::query_block() {
  const std::size_t half = args_.sizes.query_block / 2;
  std::vector<Point<3>> probes(half), dirs(half);
  for (std::size_t i = 0; i < half; ++i) {
    for (int k = 0; k < 3; ++k) {
      probes[i][k] = rng_.next_double(-1.0, 1.0);
      dirs[i][k] = rng_.next_double(-1.0, 1.0);
    }
  }
  auto t0 = Clock::now();
  std::shared_ptr<const HullSnapshot<3>> snap;
  {
    Span span("engine.snapshot");
    snap = engine_->snapshot();
  }
  snapshot_us_.push_back(seconds_since(t0) * 1e6);
  Span span("query.block");
  t0 = Clock::now();
  for (const Point<3>& q : probes) inside_ += point_in_hull<3>(*snap, q) ? 1 : 0;
  const double locate_s = seconds_since(t0);
  t0 = Clock::now();
  std::uint64_t found = 0;
  for (const Point<3>& d : dirs) {
    found += extreme_point<3>(*snap, d).vertex != kInvalidPoint ? 1 : 0;
  }
  const double extreme_s = seconds_since(t0);
  locate_us_.push_back(locate_s * 1e6 / static_cast<double>(half));
  extreme_us_.push_back(extreme_s * 1e6 / static_cast<double>(half));
  query_block_s_.push_back(timed(locate_s + extreme_s));
  queries_ += 2 * half;
  extreme_missing_ += half - found;
}

void StreamPhase::stream_step(Report& rep) {
  const std::size_t pair = pairs_++;
  // A traced run records every other pair (see HullPhase::step).
  if (args_.trace) Tracer::get().set_recording(pair % 2 == 0);
  const PointSet<3> batch = generate<3>(
      kEngineDist, args_.sizes.stream_batch, hash64(args_.seed ^ (0xba7c4ull + pair)));
  const auto first_new = static_cast<PointId>(engine_->snapshot()->point_count());
  auto t0 = Clock::now();
  HullEngine<3>::BatchResult res;
  {
    Span span("engine.insert_batch", pair);
    res = engine_->insert_batch(batch);
  }
  double ms = res.ok ? seconds_since(t0) * 1e3 : kFailedMs;
  rep.op(res.ok);
  insert_ms_.push_back(timed(ms));
  (Tracer::get().recording() ? insert_traced_ : insert_untraced_).push_back(ms);
  if (res.ok) {
    const EngineStats st = engine_->stats();
    tests_.push_back(static_cast<double>(res.visibility_tests));
    created_.push_back(static_cast<double>(res.facets_created));
    points_.push_back(static_cast<double>(st.points));
    facets_.push_back(static_cast<double>(res.hull_facets));
    pool_.push_back(static_cast<double>(st.last_pool_size));
    live_pos_.resize(first_new + batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto id = static_cast<PointId>(first_new + i);
      live_pos_[id] = static_cast<std::uint32_t>(live_.size());
      live_.push_back(id);
    }
  }
  query_block();

  const std::vector<PointId> dels = pick_deletions();
  t0 = Clock::now();
  {
    Span span("engine.delete_batch", pair);
    res = engine_->delete_batch(dels);
  }
  ms = res.ok ? seconds_since(t0) * 1e3 : kFailedMs;
  rep.op(res.ok);
  delete_ms_.push_back(timed(ms));
  if (res.ok) {
    for (PointId id : dels) drop_live(id);
    tombstoned_.push_back(static_cast<double>(res.tombstoned_facets));
    closure_.push_back(static_cast<double>(res.closure_facets));
    if (res.full_rebuild) ++rebuilds_;
  }
  query_block();
}

void StreamPhase::finish(Report& rep) {
  rep.check(extreme_missing_ == 0, "extreme_point found no vertex");
  // Gated figures at the reference host speed (see HostSpeed).
  const std::vector<double> deletes = adjusted(delete_ms_);
  double query_s = 0;
  for (double s : adjusted(query_block_s_)) query_s += s;
  rep.e2e("ingest_s", median(adjusted(ingest_totals_)), "s");
  rep.e2e("insert_p50_ms", median(adjusted(insert_ms_)), "ms");
  rep.e2e("delete_p50_ms", quantile(deletes, 0.5), "ms");
  rep.e2e("delete_p90_ms", quantile(deletes, 0.9), "ms");
  rep.e2e("query_kps", static_cast<double>(queries_) / query_s / 1e3, "kq/s");

  // Recorded, not gated: in the runs with the most host steal a tenth of
  // the inserts slowed together, and the p90 moved past any usable bound.
  rep.layer("engine.insert_p90_ms", quantile(raw(insert_ms_), 0.9), "ms");
  rep.layer("engine.ingest_tests", static_cast<double>(ingest_tests_), "count");
  rep.layer("engine.refilter_ratio",
            static_cast<double>(ingest_tests_) /
                static_cast<double>(std::max<std::uint64_t>(ingest_oneshot_tests_, 1)),
            "ratio");
  rep.layer("engine.ingest_batch_p50_ms", median(ingest_batch_ms_), "ms");
  rep.layer("engine.ingest_batch_max_ms", median(ingest_batch_max_), "ms");
  rep.layer("engine.insert_tests_per_batch", median(tests_), "count");
  rep.layer("engine.insert_facets_per_batch", median(created_), "count");
  rep.layer("engine.points_per_epoch", median(points_), "count");
  rep.layer("engine.facets_per_epoch", median(facets_), "count");
  rep.layer("engine.pool_size", median(pool_), "count");
  rep.layer("engine.delete_tombstoned_facets", median(tombstoned_), "count");
  rep.layer("engine.delete_closure_facets", median(closure_), "count");
  rep.layer("engine.full_rebuilds", static_cast<double>(rebuilds_), "count");
  rep.layer("query.snapshot_load_us", median(snapshot_us_), "us");
  rep.layer("query.locate_us", median(locate_us_), "us");
  rep.layer("query.extreme_us", median(extreme_us_), "us");
  rep.layer("query.inside_frac",
            static_cast<double>(inside_) / static_cast<double>(queries_ / 2), "ratio");
  if (args_.trace) {
    rep.layer("trace.stream_overhead_frac",
              median(insert_traced_) / median(insert_untraced_) - 1.0, "ratio");
  }
}

void StreamPhase::verify(Report& rep) {
  auto snap = engine_->snapshot();
  rep.check(snap->live_points == live_.size(),
            "stream live-point count differs from the benchmark's own ledger");
  rep.check(same_facets(args_, snapshot_tuples(*snap), survivor_oracle(*snap)),
            "I10: stream snapshot differs from the one-shot hull of its survivors");
}

}  // namespace hullbench
