// The three phases every hullbench workload runs, in this order:
//
//   HullPhase     one-shot ParallelHull::run at T = nproc and T = 1,
//                 interleaved (core, containers, geometry, parallel);
//   StreamPhase   a HullEngine<3> tenant: (a) bulk ingest in 64 batches,
//                 (b) small insert/delete batches, each followed by a
//                 block of queries on the fresh snapshot (engine, query);
//   ServicePhase  an in-process HullServer with durable tenants, driven by
//                 closed-loop connections over loopback (service, batcher,
//                 durability).
//
// Each phase sets up (timed into setup_s), then measures in steps: main
// interleaves the steps of all phases across the whole run, each phase
// getting a fixed share of --seconds, so every metric samples the same
// stretch of host conditions. finish() turns the samples into metrics and
// verify() checks every output outside the timed region.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "parhull/core/hull_output.h"
#include "parhull/core/parallel_hull.h"
#include "parhull/engine/engine.h"
#include "parhull/service/listener.h"

namespace hullbench {

// Set-up component timings: per component, one summed entry per round.
struct SetupLog {
  std::map<std::string, std::vector<double>> rounds;
  std::size_t round = 0;
  void add(const std::string& component, double seconds) {
    std::vector<double>& v = rounds[component];
    v.resize(round + 1, 0.0);
    v[round] += seconds;
  }
};

// The engine stream and the service run on ball points in both workloads;
// only the one-shot hull takes the workload's distribution. On sphere
// points (a tenant whose every point is a vertex) the engine's batch
// latencies moved by 25-33% between the host's fast and slow spells, more
// than any bound the benchmark may set; on ball points by 14-18%.
inline constexpr parhull::Distribution kEngineDist =
    parhull::Distribution::kUniformBall;

// Latency recorded for a failed operation: past any limit, so it sits at
// the top of its distribution.
inline constexpr double kFailedMs = 1e6;

// Canonical facet set of a published snapshot.
Tuples snapshot_tuples(const parhull::HullSnapshot<3>& snap);

// Facet tuples of a one-shot hull of the snapshot's surviving points, in
// snapshot ids: the I10 oracle.
Tuples survivor_oracle(const parhull::HullSnapshot<3>& snap);

class HullPhase {
 public:
  explicit HullPhase(const Args& args) : args_(args) {}
  void setup(SetupLog& log);
  // One pair of reps on a fresh insertion order: scheduler default, then
  // WorkerLimit(1).
  void step(Report& rep);
  std::size_t steps() const { return pairs_; }
  void finish(Report& rep);
  void verify(Report& rep);

 private:
  struct Rep {
    double wall_s = 0;
    double cpu_s = 0;
    std::size_t mark = 0;  // HostSpeed mark
    bool traced = false;
  };
  void next_order();
  void run_rep(int workers, std::vector<Rep>& out, Report& rep);

  const Args& args_;
  parhull::PointSet<3> pts_;
  Tuples reference_;  // facet set of the warm-up run, in pts_ ids
  // The current pair's input: pts_ in a fresh random order, prepared, and
  // the pts_ id of each of its points.
  parhull::PointSet<3> order_;
  std::vector<parhull::PointId> order_ids_;
  std::vector<Rep> tn_, t1_;
  std::size_t pairs_ = 0;
  parhull::ParallelHull<3>::Result first_;  // counters of the first rep
  bool have_first_ = false;
  std::uint64_t tests_ = 0;      // predicate_calls() delta, first rep
  std::uint64_t fallbacks_ = 0;  // predicate_exact_fallbacks() delta
  std::uint64_t chained_runs_ = 0;
};

class StreamPhase {
 public:
  explicit StreamPhase(const Args& args) : args_(args) {}
  void setup(SetupLog& log);
  // Untimed: the one-shot hull of the ingest points (reference facet set
  // and base of the re-filter ratio).
  void begin(Report& rep);
  // (a) One bulk ingest into a fresh engine, in 64 batches.
  void ingest_step(Report& rep);
  std::size_t ingest_steps() const { return ingest_totals_.size(); }
  // (b) One insert batch and one delete batch, each followed by a query
  // block on the freshly published snapshot.
  void stream_step(Report& rep);
  std::size_t stream_steps() const { return pairs_; }
  void finish(Report& rep);
  void verify(Report& rep);

 private:
  void query_block();
  std::vector<parhull::PointId> pick_deletions();
  void drop_live(parhull::PointId id);

  const Args& args_;
  std::unique_ptr<parhull::HullEngine<3>> engine_;
  std::vector<parhull::PointSet<3>> ingest_chunks_;
  Tuples ingest_reference_;  // one-shot hull of the ingest points
  std::uint64_t ingest_oneshot_tests_ = 0;
  std::uint64_t ingest_tests_ = 0;  // visibility tests of one ingest rep
  std::vector<parhull::PointId> live_;   // live ids of engine_
  std::vector<std::uint32_t> live_pos_;  // id -> index in live_
  parhull::Rng rng_{0};
  std::size_t pairs_ = 0;

  // Samples. The Timed ones feed gated metrics and are adjusted for host
  // speed; the rest feed per-layer metrics, which stay raw wall time.
  std::vector<Timed> ingest_totals_, insert_ms_, delete_ms_, query_block_s_;
  std::vector<double> ingest_batch_ms_, ingest_batch_max_;
  std::vector<double> insert_traced_, insert_untraced_;
  std::vector<double> tests_, created_, points_, facets_, pool_;
  std::vector<double> tombstoned_, closure_;
  std::uint64_t rebuilds_ = 0;
  std::vector<double> snapshot_us_, locate_us_, extreme_us_;  // per block
  std::uint64_t queries_ = 0, inside_ = 0, extreme_missing_ = 0;
};

class ServicePhase {
 public:
  explicit ServicePhase(const Args& args) : args_(args) {}
  ~ServicePhase();
  ServicePhase(const ServicePhase&) = delete;
  ServicePhase& operator=(const ServicePhase&) = delete;

  // One closed-loop connection: at most one frame in flight.
  struct Conn {
    int fd = -1;
    std::size_t index = 0;
    std::string tenant;
    parhull::Rng rng{0};
    std::string in;
    bool inflight = false;
    bool json_reply = false;  // JSON and binary frames answer in JSON
    bool traced = false;      // this frame's span is recorded
    int verb = 0;
    std::uint64_t request = 0;
    Clock::time_point sent{};
    std::deque<parhull::PointId> own;  // ids inserted and still owned
  };

  void setup(SetupLog& log);
  void begin();  // snapshot the server's counters
  // Drive the closed loop for `seconds`, then drain the frames in flight.
  void slice(double seconds, Report& rep);
  void finish(Report& rep);
  void verify(Report& rep);

 private:
  struct Counters {
    parhull::service::ServiceStats service;
    std::uint64_t epochs = 0;
    std::uint64_t wal_bytes = 0, wal_records = 0, checkpoints = 0;
  };
  Counters counters() const;

  const Args& args_;
  std::string data_dir_;
  std::unique_ptr<parhull::service::HullServer> server_;
  std::vector<std::string> tenants_;
  std::vector<Conn> conns_;  // one closed-loop connection each
  Counters start_;
  double wall_s_ = 0;
  std::uint64_t sent_ = 0, replies_ = 0, writes_ok_ = 0;
  std::vector<std::vector<double>> rtt_;  // per verb
  std::vector<Timed> write_ms_;          // every write frame's round trip
  // Read round trips of a traced run, by encoding (0 text, 1 JSON).
  std::array<std::vector<double>, 2> read_traced_, read_untraced_;
};

}  // namespace hullbench
