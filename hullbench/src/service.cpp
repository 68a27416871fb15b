// Service phase: an in-process HullServer on loopback with default options
// (4 workers, WAL sync `always`) and durable tenants of ball points under
// a fresh data directory. One client thread drives closed-loop connections with poll():
// each connection is a caller that waits for its reply before sending the
// next frame. The mix is ~80% reads (query / extreme / visible) and ~20%
// writes (binary insert of 16 points, delete of the connection's own ids,
// update), over text, JSON and binary frames.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <stdexcept>

#include "parhull/hull/hull_common.h"
#include "parhull/service/protocol.h"
#include "phases.h"

namespace hullbench {

using namespace parhull;
using namespace parhull::service;

namespace {

enum Verb : int { kQuery, kExtreme, kVisible, kInsert, kDelete, kUpdate, kVerbs };
constexpr std::array<const char*, kVerbs> kVerbName = {
    "query", "extreme", "visible", "insert", "delete", "update"};
constexpr std::array<const char*, kVerbs> kSpanName = {
    "service.frame.query",  "service.frame.extreme", "service.frame.visible",
    "service.frame.insert", "service.frame.delete",  "service.frame.update"};
bool is_write(int verb) { return verb >= kInsert; }

std::string fmt_point(const Point<3>& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g", p[0], p[1], p[2]);
  return buf;
}

// Unsigned value of `"key":N` in a JSON reply, or of the number after
// `marker` in a text reply.
bool find_number(const std::string& s, const std::string& marker,
                 std::uint64_t& out) {
  const std::size_t at = s.find(marker);
  if (at == std::string::npos) return false;
  out = std::strtoull(s.c_str() + at + marker.size(), nullptr, 10);
  return true;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

// Blocking read of one reply line (set-up only; the socket has a receive
// timeout so a dead server cannot hang the run).
std::string read_line(int fd) {
  std::string line;
  char ch = 0;
  while (::recv(fd, &ch, 1, 0) == 1) {
    line.push_back(ch);
    if (ch == '\n') break;
  }
  return line;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

// Compose conn's next frame and record which verb it carries.
std::string next_frame(const Args& args, ServicePhase::Conn& c) {
  const Sizes& sz = args.sizes;
  const double u = c.rng.next_double();
  int verb = u < 0.8 ? static_cast<int>(c.rng.next_below(3))
             : u < 0.88 ? kInsert
             : u < 0.96 ? kDelete
                        : kUpdate;
  if (verb == kDelete && c.own.size() < sz.delete_ids) verb = kInsert;
  if (verb == kUpdate && c.own.empty()) verb = kInsert;
  c.verb = verb;
  ++c.request;
  const std::uint64_t stream = hash64(args.seed ^ hash64(c.request ^ hash64(c.index)));

  if (verb == kInsert) {
    c.json_reply = true;
    const PointSet<3> pts = generate<3>(kEngineDist, sz.insert_points, stream);
    return build_binary_frame(
        kBinInsert, c.tenant,
        std::string_view(reinterpret_cast<const char*>(pts.data()),
                         pts.size() * sizeof(Point<3>)));
  }
  // Arguments are appended piecewise: GCC 12 misfires -Wrestrict on
  // `" " + std::string` temporaries.
  std::string cmd = kVerbName[static_cast<std::size_t>(verb)];
  auto arg = [&cmd](const std::string& a) {
    cmd += ' ';
    cmd += a;
  };
  if (verb == kDelete) {
    for (std::size_t i = 0; i < sz.delete_ids; ++i) {
      arg(std::to_string(c.own.front()));
      c.own.pop_front();
    }
  } else if (verb == kUpdate) {
    arg(std::to_string(c.own.front()));
    arg(fmt_point(generate<3>(kEngineDist, 1, stream)[0]));
    c.own.pop_front();
  } else {
    Point<3> p;
    const double r = verb == kVisible ? 1.2 : 1.0;
    for (int k = 0; k < 3; ++k) p[k] = c.rng.next_double(-r, r);
    arg(fmt_point(p));
  }
  // Text and JSON frames alternate request by request.
  c.json_reply = c.request % 2 == 0;
  if (!c.json_reply) return cmd + "\n";
  return "{\"cmd\": \"" + cmd + "\", \"tenant\": \"" + c.tenant +
         "\", \"id\": " + std::to_string(c.request) + "}\n";
}

// Did the reply report success? Updates conn's owned ids on writes.
bool handle_reply(ServicePhase::Conn& c, const std::string& reply) {
  bool ok = false;
  if (c.json_reply) {
    ok = reply.find("\"status\":\"ok\"") != std::string::npos;
  } else if (is_write(c.verb)) {
    ok = reply.rfind("ok:", 0) == 0;
  } else {
    ok = reply.rfind("inside", 0) == 0 || reply.rfind("outside", 0) == 0 ||
         reply.rfind("on boundary", 0) == 0 || reply.rfind("vertex ", 0) == 0 ||
         reply.find(" facets visible") != std::string::npos;
  }
  if (!ok) return false;
  std::uint64_t first = 0, count = 0, id = 0;
  if (c.verb == kInsert && find_number(reply, "\"first_id\":", first) &&
      find_number(reply, "\"count\":", count)) {
    for (std::uint64_t i = 0; i < count; ++i) c.own.push_back(static_cast<PointId>(first + i));
  }
  if (c.verb == kUpdate && (find_number(reply, "\"new_id\":", id) ||
                            find_number(reply, "replacement has id ", id))) {
    c.own.push_back(static_cast<PointId>(id));
  }
  return true;
}

}  // namespace

void ServicePhase::setup(SetupLog& log) {
  const Sizes& sz = args_.sizes;
  data_dir_ = args_.work_dir + "/tenants";
  std::filesystem::remove_all(data_dir_);
  std::filesystem::create_directories(data_dir_);

  auto t0 = Clock::now();
  {
    Span span("service.start");
    ServiceOptions opts;
    opts.tenants.data_dir = data_dir_;
    server_ = std::make_unique<HullServer>(opts);
    if (server_->start() != HullStatus::kOk) {
      throw std::runtime_error("service failed to start");
    }
  }
  log.add("server_start", seconds_since(t0));

  t0 = Clock::now();
  for (std::size_t t = 0; t < sz.tenants; ++t) {
    tenants_.push_back(std::string("t") + std::to_string(t));
    PointSet<3> pts = generate<3>(kEngineDist, sz.tenant_n, args_.seed + 10 + t);
    Span span("service.tenant_bootstrap");
    TenantSession* s = server_->registry().get_or_create(tenants_.back());
    if (s == nullptr || s->insert_points(std::move(pts)).status != HullStatus::kOk) {
      throw std::runtime_error("tenant bootstrap failed");
    }
  }
  log.add("tenant_bootstrap", seconds_since(t0));

  t0 = Clock::now();
  conns_.resize(sz.connections);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Span span("service.connect");
    Conn& c = conns_[i];
    c.index = i;
    c.tenant = tenants_[i % tenants_.size()];
    c.rng = Rng(hash64(args_.seed ^ (0xc0117ull + i)));
    c.fd = connect_loopback(server_->port());
    if (c.fd < 0) throw std::runtime_error("connect to the service failed");
    if (!send_all(c.fd, "tenant " + c.tenant + "\n") ||
        read_line(c.fd).rfind("ok: tenant", 0) != 0) {
      throw std::runtime_error("tenant bind failed");
    }
  }
  log.add("connect", seconds_since(t0) / static_cast<double>(sz.connections));
}

ServicePhase::Counters ServicePhase::counters() const {
  Counters out;
  out.service = server_->stats();
  for (const auto& t : tenants_) {
    TenantSession* s = server_->registry().find(t);
    out.epochs += s->stats().batches;
    const auto d = s->durability()->stats();
    out.wal_bytes += d.wal_bytes;
    out.wal_records += d.wal_records;
    out.checkpoints += d.checkpoints_written;
  }
  return out;
}

void ServicePhase::begin() {
  start_ = counters();
  rtt_.assign(kVerbs, {});
}

void ServicePhase::slice(double seconds, Report& rep) {
  std::vector<char> buf(1 << 16);
  std::vector<pollfd> pfds;
  std::vector<Conn*> waiting;
  std::uint64_t failed = 0, sent = 0;
  const std::size_t mark = HostSpeed::get().mark();
  const auto t0 = Clock::now();
  for (;;) {
    const bool sending = seconds_since(t0) < seconds;
    pfds.clear();
    waiting.clear();
    for (Conn& c : conns_) {
      if (!c.inflight && sending) {
        const std::string frame = next_frame(args_, c);
        // A traced run records the spans of half the frames; the rest give
        // the untraced round trip the tracing overhead is measured against.
        // The choice follows request / 2, not the request parity that picks
        // text or JSON, so each encoding has traced and untraced frames.
        c.traced = args_.trace && (c.request / 2) % 2 == 0;
        c.sent = Clock::now();
        c.inflight = true;
        ++sent;
        if (!send_all(c.fd, frame)) throw std::runtime_error("send to the service failed");
      }
      if (c.inflight) {
        pfds.push_back({c.fd, POLLIN, 0});
        waiting.push_back(&c);
      }
    }
    if (waiting.empty()) break;
    const int rc = ::poll(pfds.data(), pfds.size(), 10000);
    if (rc < 0 && errno == EINTR) continue;
    // A stall ends the run: a late reply would be read as the answer to
    // its connection's next frame.
    if (rc == 0) throw std::runtime_error("service stalled: no reply within 10 s");
    if (rc < 0) throw std::runtime_error("poll on the service connections failed");
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Conn& c = *waiting[i];
      const ssize_t r = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (r <= 0) throw std::runtime_error("service closed a connection");
      c.in.append(buf.data(), static_cast<std::size_t>(r));
      const std::size_t nl = c.in.find('\n');
      if (nl == std::string::npos) continue;
      const auto now = Clock::now();
      if (c.traced) {
        Tracer::get().record(kSpanName[static_cast<std::size_t>(c.verb)], c.sent,
                             now, c.request);
      }
      // The round trip ends after the span is recorded, so a traced
      // frame's latency carries the tracing cost.
      double ms = std::chrono::duration<double, std::milli>(Clock::now() - c.sent).count();
      const std::string reply = c.in.substr(0, nl + 1);
      c.in.erase(0, nl + 1);
      c.inflight = false;
      ++replies_;
      if (!handle_reply(c, reply)) {
        ++failed;
        ms = kFailedMs;
      } else if (is_write(c.verb)) {
        ++writes_ok_;
      }
      rtt_[static_cast<std::size_t>(c.verb)].push_back(ms);
      if (is_write(c.verb)) write_ms_.push_back({ms, mark});
      if (args_.trace && !is_write(c.verb)) {
        (c.traced ? read_traced_ : read_untraced_)[c.json_reply ? 1 : 0].push_back(ms);
      }
    }
  }
  wall_s_ += seconds_since(t0);
  sent_ += sent;
  rep.ops(sent, failed);
}

void ServicePhase::finish(Report& rep) {
  const Counters end = counters();
  std::vector<double> reads, writes;
  for (int v = 0; v < kVerbs; ++v) {
    const auto& r = rtt_[static_cast<std::size_t>(v)];
    std::vector<double>& into = is_write(v) ? writes : reads;
    into.insert(into.end(), r.begin(), r.end());
  }
  // At the reference host speed (see HostSpeed).
  rep.e2e("write_p50_ms", median(adjusted(write_ms_)), "ms");
  // Recorded, not gated: reads cross four thread hand-offs and frames/s
  // follows the mean write latency, so these moved with host steal across
  // runs by more than any usable bound; write_p50_ms did not.
  rep.layer("service.frames_per_s", static_cast<double>(replies_) / wall_s_, "1/s");
  rep.layer("service.read_p50_ms", quantile(reads, 0.5), "ms");
  rep.layer("service.write_p99_ms", quantile(writes, 0.99), "ms");
  rep.layer("service.read_p99_ms", quantile(reads, 0.99), "ms");

  for (int v = 0; v < kVerbs; ++v) {
    const auto& r = rtt_[static_cast<std::size_t>(v)];
    const std::string base =
        std::string("service.rtt_") + kVerbName[static_cast<std::size_t>(v)];
    rep.layer(base + "_p50_ms", quantile(r, 0.5), "ms");
    rep.layer(base + "_p99_ms", quantile(r, 0.99), "ms");
  }
  const ServiceStats& a = start_.service;
  const ServiceStats& b = end.service;
  rep.layer("service.frames", static_cast<double>(b.frames_total - a.frames_total), "count");
  rep.layer("service.shed_frames", static_cast<double>(b.shed_frames - a.shed_frames), "count");
  rep.layer("service.protocol_errors",
            static_cast<double>(b.protocol_errors - a.protocol_errors), "count");
  rep.layer("service.bytes_in", static_cast<double>(b.bytes_in - a.bytes_in), "bytes");
  rep.layer("service.bytes_out", static_cast<double>(b.bytes_out - a.bytes_out), "bytes");
  const std::uint64_t epochs = end.epochs - start_.epochs;
  const double writes_ok = static_cast<double>(std::max<std::uint64_t>(writes_ok_, 1));
  rep.layer("batcher.epochs", static_cast<double>(epochs), "count");
  rep.layer("batcher.writes_per_epoch",
            static_cast<double>(writes_ok_) /
                static_cast<double>(std::max<std::uint64_t>(epochs, 1)),
            "ratio");
  const std::uint64_t wal_bytes = end.wal_bytes - start_.wal_bytes;
  rep.layer("durability.wal_bytes", static_cast<double>(wal_bytes), "bytes");
  rep.layer("durability.wal_records",
            static_cast<double>(end.wal_records - start_.wal_records), "count");
  rep.layer("durability.checkpoints",
            static_cast<double>(end.checkpoints - start_.checkpoints), "count");
  rep.layer("durability.bytes_per_write", static_cast<double>(wal_bytes) / writes_ok,
            "bytes");
  if (args_.trace) {
    // Per encoding, then averaged: text and JSON reads weigh the same.
    double overhead = 0;
    for (std::size_t e = 0; e < 2; ++e) {
      overhead += 0.5 * (median(read_traced_[e]) / median(read_untraced_[e]) - 1.0);
    }
    rep.layer("trace.frame_overhead_frac", overhead, "ratio");
  }
}

void ServicePhase::verify(Report& rep) {
  for (const std::string& t : tenants_) {
    auto snap = server_->registry().find(t)->snapshot();
    rep.check(snap != nullptr &&
                  same_facets(args_, snapshot_tuples(*snap), survivor_oracle(*snap)),
              "I10: tenant " + t + " differs from the one-shot hull of its survivors");
  }
}

ServicePhase::~ServicePhase() {
  for (const Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (server_ != nullptr) {
    Span span("service.stop");
    server_->stop();
    server_.reset();
  }
  std::error_code ec;
  if (!data_dir_.empty()) std::filesystem::remove_all(data_dir_, ec);
}

}  // namespace hullbench
