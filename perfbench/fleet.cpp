/// fleet_session: a forked fleet::Service with 256 devices, configured as
/// `ash_fleetd serve` ships it (instrumented, flight recorder on), started
/// from genesis in a fresh state directory.  Two closed-loop clients (one
/// blocking connection and one thread each) send a seeded mix: ~25 %
/// schedule_sleep mutations, 10 % margin-batch over all 256 devices, and
/// single-device margin / status / ping reads.  The only workload on the
/// wire and the disk.  A traced run also replays the same sequence in
/// process through Service::respond to time each service layer.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "ash/bti/closed_form.h"
#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/client.h"
#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "ash/mc/margin.h"
#include "ash/util/random.h"
#include "bench.h"

namespace perfbench {

namespace {

using ash::fleet::MessageType;

constexpr std::uint64_t kDevices = 256;
constexpr int kClients = 2;

enum Verb { kPing, kStatus, kMargin, kMarginBatch, kScheduleSleep, kVerbCount };
static_assert(std::size(kVerbs) == kVerbCount, "kVerbs names the Verb values in order");

/// Per client and session: 20 segments of 200 requests, each a seeded
/// shuffle of 50 mutations, 20 margin-batches and 130 reads (65 margin, 33
/// status, 32 ping), so 2000 mutations a session.  The clients meet
/// between segments, where the shared vCPU is probed.
constexpr int kSegments = 20;
constexpr int kSegmentOps = 200;
constexpr int kSegmentMix[kVerbCount] = {32, 33, 65, 20, 50};
constexpr int kMutations = kSegments * kSegmentMix[kScheduleSleep];
/// Daemon restarts over each session's final state, timed for setup_s.
constexpr int kRestarts = 10;

MessageType request_type(Verb v) {
  switch (v) {
    case kPing: return MessageType::kPingRequest;
    case kStatus: return MessageType::kStatusRequest;
    case kMargin: return MessageType::kMarginRequest;
    case kMarginBatch: return MessageType::kMarginBatchRequest;
    default: return MessageType::kScheduleSleepRequest;
  }
}

struct Schedule {
  double duty = 0.5;
  ash::Volts vdd{1.2};
  ash::Celsius temp{80.0};
};

struct Op {
  Verb verb = kPing;
  std::uint64_t device = 0;
  int schedule = 0;
  ash::Seconds start{0.0};
  ash::Seconds duration{0.0};
};

struct Inputs {
  std::vector<Op> ops[kClients];
};

/// The queried mission schedules are fixed: margin_outlook's cost depends
/// on the schedule, and seeded schedules made margin-batch latency swing
/// 6.5..12 ms from seed to seed.  Devices, request order, sleep windows and
/// the daemon's aging priors still come from the seed.
constexpr Schedule kSchedules[] = {{0.2, ash::Volts{1.10}, ash::Celsius{60.0}},
                                   {0.4, ash::Volts{1.15}, ash::Celsius{73.0}},
                                   {0.6, ash::Volts{1.25}, ash::Celsius{87.0}},
                                   {0.8, ash::Volts{1.30}, ash::Celsius{100.0}}};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  for (int c = 0; c < kClients; ++c) {
    ash::Rng rng(ash::derive_seed(seed, 0xF0 + static_cast<std::uint64_t>(c)));
    std::vector<Op>& ops = in.ops[c];
    for (int seg = 0; seg < kSegments; ++seg) {
      const std::size_t first = ops.size();
      for (int v = 0; v < kVerbCount; ++v) {
        for (int i = 0; i < kSegmentMix[v]; ++i) {
          Op op;
          op.verb = static_cast<Verb>(v);
          op.device = rng.uniform_index(kDevices);
          op.schedule = static_cast<int>(rng.uniform_index(std::size(kSchedules)));
          op.start = ash::Seconds{rng.uniform(0.0, 1e7)};
          op.duration = ash::Seconds{rng.uniform(3600.0, 8.0 * 3600.0)};
          ops.push_back(op);
        }
      }
      for (std::size_t i = ops.size() - 1; i > first; --i) {
        std::swap(ops[i], ops[first + rng.uniform_index(i - first + 1)]);
      }
    }
  }
  return in;
}

std::string request_payload(const Op& op, std::uint64_t client_id) {
  const Schedule& sc = kSchedules[op.schedule];
  switch (op.verb) {
    case kPing: return ash::fleet::PingRequest{}.encode();
    case kStatus: return ash::fleet::StatusRequest{}.encode();
    case kMargin: {
      ash::fleet::MarginRequest req;
      req.device_id = op.device;
      req.duty = sc.duty;
      req.vdd = sc.vdd;
      req.temp = sc.temp;
      return req.encode();
    }
    case kMarginBatch: {
      ash::fleet::MarginBatchRequest req;
      for (std::uint64_t d = 0; d < kDevices; ++d) req.device_ids.push_back(d);
      req.duty = sc.duty;
      req.vdd = sc.vdd;
      req.temp = sc.temp;
      return req.encode();
    }
    default: {
      ash::fleet::ScheduleSleepRequest req;
      req.client_id = client_id;
      req.device_id = op.device;
      req.start = op.start;
      req.duration = op.duration;
      return req.encode();
    }
  }
}

ash::fleet::ServiceConfig service_config(const std::string& dir, std::uint64_t seed) {
  ash::fleet::ServiceConfig config;
  config.socket_path = dir + "/fleetd.sock";
  config.state_dir = dir + "/state";
  config.devices = kDevices;
  config.seed = ash::derive_seed(seed, 0xF1);
  config.instrument = true;
  config.flight_recorder_path = dir + "/flight.txt";
  return config;
}

/// A forked daemon, ready once the constructor returns (its first ping is
/// answered), stopped (SIGTERM, then reaped) when it goes out of scope;
/// its resource usage is kept for the RSS figure.
class Daemon {
 public:
  Daemon(const std::string& dir, std::uint64_t seed)
      : config_(service_config(dir, seed)) {
    make_dirs(config_.state_dir);
    const auto t0 = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      try {
        ash::fleet::Service service(config_);
        service.run();
        std::_Exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fleet daemon: %s\n", e.what());
        std::_Exit(3);
      }
    }
    ash::fleet::ClientConfig cc;
    cc.socket_path = config_.socket_path;
    cc.client_id = 99;
    cc.max_attempts = 1;
    ash::fleet::Client probe(cc);
    for (;;) {
      try {
        if (probe.ping()) break;
      } catch (const std::runtime_error&) {
      }
      if (seconds_since(t0) > 20.0) {
        stop();
        throw std::runtime_error("daemon did not answer a ping within 20 s");
      }
      ::usleep(20);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (graceful drain) and reap; true when it exited 0.
  bool stop() {
    if (pid_ <= 0) return clean_exit_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::wait4(pid_, &status, 0, &usage_) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    clean_exit_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return clean_exit_;
  }

  const ash::fleet::ServiceConfig& config() const { return config_; }
  double peak_rss_mb() const { return static_cast<double>(usage_.ru_maxrss) / 1024.0; }

 private:
  ash::fleet::ServiceConfig config_;
  pid_t pid_ = -1;
  bool clean_exit_ = false;
  rusage usage_{};
};

/// One timed call: its segment and raw round-trip time.
struct Sample {
  int segment = 0;
  double ms = 0.0;
};

/// What one client thread observed.
struct ClientLog {
  std::vector<Sample> latency[kVerbCount];
  long long attempted = 0;
  long long errors = 0;       ///< error responses and retried-out calls
  long long not_applied = 0;  ///< mutation acks without newly_applied
  std::uint64_t sheds = 0, retries = 0, reconnects = 0;
  /// (device, schedule) -> single margin answer; schedule -> batch rows.
  std::map<std::pair<std::uint64_t, int>, ash::fleet::MarginResponse> single;
  std::map<int, ash::fleet::MarginBatchResponse> batch;
  SpanRecorder spans;
};

/// One closed-loop client: its ops in segments of kSegmentOps, meeting
/// the other client and the prober at `sync` before and after each.
void run_client(const Inputs& in, int c, const std::string& socket, bool traced,
                std::barrier<>& sync, ClientLog& log) {
  ash::fleet::ClientConfig cc;
  cc.socket_path = socket;
  cc.client_id = static_cast<std::uint64_t>(c + 1);
  ash::fleet::Client client(cc);
  const int root = traced ? log.spans.begin("fleet.client", -1) : -1;
  const std::vector<Op>& ops = in.ops[c];
  for (int seg = 0; seg < kSegments; ++seg) {
    sync.arrive_and_wait();
    for (int i = seg * kSegmentOps; i < (seg + 1) * kSegmentOps; ++i) {
      const Op& op = ops[static_cast<std::size_t>(i)];
      ++log.attempted;
      const int span = traced ? log.spans.begin("fleet.call", root) : -1;
      const auto t0 = Clock::now();
      try {
        const ash::fleet::Frame resp =
            client.call(request_type(op.verb), request_payload(op, cc.client_id));
        log.latency[op.verb].push_back({seg, seconds_since(t0) * 1e3});
        if (traced) log.spans.end(span);
        if (resp.type == MessageType::kErrorResponse) {
          ++log.errors;
        } else if (op.verb == kScheduleSleep) {
          if (!ash::fleet::ScheduleSleepResponse::parse(resp.payload).newly_applied) {
            ++log.not_applied;
          }
        } else if (op.verb == kMargin) {
          log.single[{op.device, op.schedule}] =
              ash::fleet::MarginResponse::parse(resp.payload);
        } else if (op.verb == kMarginBatch) {
          log.batch[op.schedule] = ash::fleet::MarginBatchResponse::parse(resp.payload);
        }
      } catch (const std::exception&) {
        if (traced) log.spans.end(span);
        ++log.errors;
      }
    }
    sync.arrive_and_wait();
  }
  if (traced) log.spans.end(root);
  const ash::fleet::ClientStats& st = client.stats();
  log.sheds = st.overloaded_retries;
  log.retries = st.attempts - st.calls;
  log.reconnects = st.reconnects;
}

struct Session {
  std::vector<ProbedClock::Interval> restarts;  ///< fork until the first ping
  double wall_s = 0.0;       ///< sum of segment times
  double norm_wall_s = 0.0;  ///< the same, speed-normalized
  std::vector<double> factor;  ///< per-segment speed factor
  double daemon_rss_mb = 0.0;
  std::uint64_t state_bytes = 0;
  ClientLog logs[kClients];
  std::string server_metrics;  ///< daemon scrape, traced sessions only
};

void run_session(const Inputs& in, const std::string& dir, std::uint64_t seed,
                 bool traced, ProbedClock& clock, Session& s, Result& r) {
  remove_tree(dir);
  std::optional<Daemon> daemon(std::in_place, dir, seed);
  {
    // The daemon and the clients inherit this thread's vCPU; the clock
    // probes it after each segment, while the clients wait at the next
    // rendezvous and the daemon idles.
    std::barrier<> sync(kClients + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(run_client, std::cref(in), c, daemon->config().socket_path,
                           traced, std::ref(sync), std::ref(s.logs[c]));
    }
    for (int seg = 0; seg < kSegments; ++seg) {
      sync.arrive_and_wait();
      const ProbedClock::Interval t = clock.time([&] { sync.arrive_and_wait(); });
      s.factor.push_back(t.norm_s / t.raw_s);
      s.wall_s += t.raw_s;
      s.norm_wall_s += t.norm_s;
    }
    for (auto& t : threads) t.join();
  }

  ash::fleet::ClientConfig cc;
  cc.socket_path = daemon->config().socket_path;
  cc.client_id = 98;
  ash::fleet::Client admin(cc);
  const ash::fleet::StatusResponse status = admin.status();
  const auto sent = static_cast<std::uint64_t>(kClients * kMutations);
  r.check(status.sequence == sent, "final status sequence != mutations sent");
  r.check(status.windows == sent, "final status windows != mutations sent");
  if (traced) s.server_metrics = admin.metrics("fleet.service.").text;
  r.check(daemon->stop(), "daemon did not drain and exit cleanly");
  s.daemon_rss_mb = daemon->peak_rss_mb();
  s.state_bytes = directory_bytes(daemon->config().state_dir);

  // Set-up time: restarts over the final state load the newest snapshot
  // and serve; a fresh start would time genesis fsyncs, which track the
  // host's disk rather than the service.
  for (int i = 0; i < kRestarts; ++i) {
    daemon.reset();
    s.restarts.push_back(clock.time([&] { daemon.emplace(dir, seed); }));
    r.check(daemon->stop(), "restarted daemon did not drain and exit cleanly");
  }

  std::size_t compared = 0;
  for (const ClientLog& log : s.logs) {
    r.check(log.not_applied == 0, "a mutation was not acked as newly applied");
    for (const auto& [key, single] : log.single) {
      for (const ClientLog& other : s.logs) {
        const auto it = other.batch.find(key.second);
        if (it == other.batch.end()) continue;
        const ash::fleet::MarginBatchRow& row = it->second.rows.at(key.first);
        ++compared;
        r.check(row.device_id == key.first && row.crosses == single.crosses &&
                    row.time_to_margin == single.time_to_margin &&
                    row.delta_vth == single.delta_vth,
                "a margin-batch row differs from the single margin answer");
      }
    }
  }
  r.check(compared > 0, "no margin-batch row could be compared");
}

/// Mean of a daemon latency histogram in ms, from its scraped .sum/.count.
double scraped_mean_ms(const std::string& text, const std::string& name) {
  std::istringstream is(text);
  std::string line;
  double sum = 0.0, count = 0.0;
  while (std::getline(is, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    if (key == name + ".sum") sum = std::stod(line.substr(eq + 1));
    if (key == name + ".count") count = std::stod(line.substr(eq + 1));
  }
  return count > 0.0 ? sum / count * 1e3 : 0.0;
}

/// In-process replay of the session's requests (clients interleaved) with
/// a span around each service layer; fills the fleet.* per-layer rows.
void replay(const Inputs& in, const std::string& dir, std::uint64_t seed,
            SpanRecorder& spans, Result& r) {
  remove_tree(dir);
  const ash::fleet::ServiceConfig config = service_config(dir, seed);
  make_dirs(config.state_dir);
  make_dirs(dir + "/side");
  ash::fleet::Service service(config);
  const ash::fleet::CheckpointStore side(dir + "/side");
  const ash::bti::ClosedFormModel model(config.physics);

  std::vector<double> encode_us[kVerbCount], parse_us[kVerbCount], respond_us[kVerbCount];
  std::vector<double> serialize_us, save_us, find_us, outlook_us_per_device;
  std::vector<double> state_bytes;
  const auto us = [&](int span) { return spans.duration_ns(span) * 1e-3; };

  const int root = spans.begin("fleet.replay", -1);
  const std::size_t n = in.ops[0].size();
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < kClients; ++c) {
      const Op& op = in.ops[c][i];
      const auto client_id = static_cast<std::uint64_t>(c + 1);
      const std::uint64_t request_id = i + 1;
      const MessageType type = request_type(op.verb);

      const int e1 = spans.begin("fleet.codec.encode", root);
      const std::string wire =
          ash::fleet::frame_message(type, request_id, request_payload(op, client_id));
      spans.end(e1);
      const int p1 = spans.begin("fleet.codec.parse", root);
      const ash::fleet::Frame request = ash::fleet::decode_frame(wire);
      switch (op.verb) {
        case kPing: (void)ash::fleet::PingRequest::parse(request.payload); break;
        case kStatus: (void)ash::fleet::StatusRequest::parse(request.payload); break;
        case kMargin: (void)ash::fleet::MarginRequest::parse(request.payload); break;
        case kMarginBatch: (void)ash::fleet::MarginBatchRequest::parse(request.payload); break;
        default: (void)ash::fleet::ScheduleSleepRequest::parse(request.payload); break;
      }
      spans.end(p1);
      const int rs = spans.begin("fleet.respond", root);
      const ash::fleet::Frame response = service.respond(request);
      spans.end(rs);
      const int e2 = spans.begin("fleet.codec.encode", root);
      const std::string reply =
          ash::fleet::frame_message(response.type, response.request_id, response.payload);
      spans.end(e2);
      const int p2 = spans.begin("fleet.codec.parse", root);
      const ash::fleet::Frame decoded = ash::fleet::decode_frame(reply);
      bool ok = decoded.type != MessageType::kErrorResponse;
      switch (op.verb) {
        case kPing: (void)ash::fleet::PingResponse::parse(decoded.payload); break;
        case kStatus: (void)ash::fleet::StatusResponse::parse(decoded.payload); break;
        case kMargin: (void)ash::fleet::MarginResponse::parse(decoded.payload); break;
        case kMarginBatch: (void)ash::fleet::MarginBatchResponse::parse(decoded.payload); break;
        default:
          ok = ok && ash::fleet::ScheduleSleepResponse::parse(decoded.payload).newly_applied;
          break;
      }
      spans.end(p2);
      r.check(ok, "an in-process replay request failed");
      encode_us[op.verb].push_back(us(e1) + us(e2));
      parse_us[op.verb].push_back(us(p1) + us(p2));
      respond_us[op.verb].push_back(us(rs));

      if (op.verb == kScheduleSleep) {
        const int ser = spans.begin("fleet.state.serialize", root);
        const std::string payload = service.state().serialize();
        spans.end(ser);
        const int sv = spans.begin("fleet.store.save", root);
        side.save(0, service.state().sequence, payload);
        side.prune(0, 16);
        spans.end(sv);
        const int fd = spans.begin("fleet.idempotency.find", root);
        const bool miss = service.state().find_applied(client_id, ~std::uint64_t{0}) == nullptr;
        spans.end(fd);
        r.check(miss, "idempotency lookup of an unsent request id hit");
        serialize_us.push_back(us(ser));
        save_us.push_back(us(sv));
        find_us.push_back(us(fd));
        state_bytes.push_back(static_cast<double>(payload.size()));
      } else if (op.verb == kMarginBatch) {
        const Schedule& sc = kSchedules[op.schedule];
        std::vector<ash::mc::MarginQuery> queries(kDevices);
        for (std::uint64_t d = 0; d < kDevices; ++d) {
          queries[d].delta_vth = service.state().devices[d].delta_vth;
          queries[d].margin = service.state().margin;
          queries[d].duty = sc.duty;
          queries[d].vdd = sc.vdd;
          queries[d].temp = sc.temp;
        }
        const int mb = spans.begin("mc.margin_batch", root);
        (void)ash::mc::margin_outlook(model, queries);
        spans.end(mb);
        outlook_us_per_device.push_back(us(mb) / static_cast<double>(kDevices));
      }
    }
  }
  spans.end(root);
  r.check(service.state().sequence == static_cast<std::uint64_t>(kClients * kMutations),
          "replayed state sequence != mutations replayed");

  for (int v = 0; v < kVerbCount; ++v) {
    r.per_layer[std::string("fleet.codec.encode_us.") + kVerbs[v]] = median(encode_us[v]);
    r.per_layer[std::string("fleet.codec.parse_us.") + kVerbs[v]] = median(parse_us[v]);
    r.per_layer[std::string("fleet.respond_us.") + kVerbs[v]] = median(respond_us[v]);
  }
  r.per_layer["mc.margin_batch.us_per_device"] = median(outlook_us_per_device);
  r.per_layer["fleet.state.serialize_us"] = median(serialize_us);
  r.per_layer["fleet.state.bytes"] = median(state_bytes);
  r.per_layer["fleet.store.save_us"] = median(save_us);
  r.per_layer["fleet.idempotency.find_miss_us"] = median(find_us);
}

}  // namespace

Result run_fleet_session(const Options& options) {
  Result r;
  const Inputs in = make_inputs(options.seed);
  const std::string base = options.work_dir + "/fleet";

  ProbedClock clock;
  std::vector<Session> sessions;
  const auto start = Clock::now();
  do {
    sessions.emplace_back();
    run_session(in, base + "/session", options.seed, false, clock, sessions.back(), r);
  } while (seconds_since(start) < options.seconds);

  // Raw and speed-normalized round trips per verb, pooled over sessions.
  std::vector<double> lat[kVerbCount], norm[kVerbCount], setup_s, setup_raw_s;
  double wall = 0.0, norm_wall = 0.0, daemon_rss = 0.0;
  long long attempted = 0, errors = 0, sheds = 0;
  std::vector<double> state_bytes;
  for (const Session& s : sessions) {
    wall += s.wall_s;
    norm_wall += s.norm_wall_s;
    for (const ProbedClock::Interval& t : s.restarts) {
      setup_raw_s.push_back(t.raw_s);
      setup_s.push_back(t.norm_s);
    }
    daemon_rss = std::max(daemon_rss, s.daemon_rss_mb);
    state_bytes.push_back(static_cast<double>(s.state_bytes));
    for (const ClientLog& log : s.logs) {
      attempted += log.attempted;
      errors += log.errors;
      sheds += static_cast<long long>(log.sheds);
      for (int v = 0; v < kVerbCount; ++v) {
        for (const Sample& x : log.latency[v]) {
          lat[v].push_back(x.ms);
          norm[v].push_back(x.ms * s.factor[static_cast<std::size_t>(x.segment)]);
        }
      }
    }
  }
  std::vector<double> queries;
  for (Verb v : {kPing, kStatus, kMargin}) queries.insert(queries.end(), lat[v].begin(), lat[v].end());
  const double bench_rss = self_peak_rss_mb();
  r.attempted = attempted;
  r.failed = errors + sheds;

  const auto n = [](const std::vector<double>& v) { return v.size(); };
  const std::vector<double>& mut = lat[kScheduleSleep];
  const std::vector<double>& batch = lat[kMarginBatch];
  const double rps = static_cast<double>(attempted) / wall;
  const double norm_rps = static_cast<double>(attempted) / norm_wall;
  const double norm_mut_p50 = quantile(norm[kScheduleSleep], 0.50);
  r.add_detail("setup_s", median(setup_raw_s), "s", setup_raw_s.size());
  r.add_detail("setup_s.normalized", median(setup_s), "s", setup_s.size());
  r.add_detail("fleet_rps", rps, "1/s", sessions.size());
  r.add_detail("fleet_rps.normalized", norm_rps, "1/s", sessions.size());
  r.add_detail("mutation_p50_ms", quantile(mut, 0.50), "ms", n(mut));
  r.add_detail("mutation_p50_ms.normalized", norm_mut_p50, "ms", n(mut));
  r.add_detail("mutation_p99_ms", quantile(mut, 0.99), "ms", n(mut));
  r.add_detail("margin_batch_p50_ms", quantile(batch, 0.50), "ms", n(batch));
  r.add_detail("margin_batch_p99_ms", quantile(batch, 0.99), "ms", n(batch));
  r.add_detail("query_p50_ms", quantile(queries, 0.50), "ms", n(queries));
  r.add_detail("query_p99_ms", quantile(queries, 0.99), "ms", n(queries));
  r.add_detail("error_frac", static_cast<double>(r.failed) / static_cast<double>(attempted),
               "frac", static_cast<std::size_t>(attempted));
  r.add_detail("state_disk_bytes", median(state_bytes), "bytes", state_bytes.size());
  r.add_detail("peak_rss_mb (daemon)", daemon_rss, "MB", sessions.size());
  r.add_detail("peak_rss_mb (benchmark)", bench_rss, "MB", 1);
  r.add_detail("host_probe_ms (mean)", probe_mean_ms(), "ms", 1);
  r.check(r.failed == 0, "the fleet session saw errors, sheds or retried-out calls");

  r.end_to_end["setup_s"] = {median(setup_s), "s", setup_s.size()};
  r.end_to_end["op_p50_ms"] = {norm_mut_p50, "ms", n(mut)};
  r.end_to_end["throughput_per_s"] = {norm_rps, "1/s", sessions.size()};
  r.end_to_end["peak_rss_mb"] = {daemon_rss, "MB", sessions.size()};
  r.end_to_end["state_bytes"] = {median(state_bytes), "bytes", state_bytes.size()};

  if (options.trace) {
    Session traced;
    run_session(in, base + "/traced", options.seed, true, clock, traced, r);
    SpanRecorder spans;
    replay(in, base + "/replay", options.seed, spans, r);
    std::uint64_t retries = 0, reconnects = 0;
    for (const ClientLog& log : traced.logs) {
      retries += log.retries;
      reconnects += log.reconnects;
      spans.adopt(log.spans);
    }
    for (const char* verb : kVerbs) {
      r.per_layer[std::string("fleet.server.latency_ms.") + verb] =
          scraped_mean_ms(traced.server_metrics, std::string("fleet.service.latency.") + verb);
    }
    r.per_layer["fleet.server.queue_wait_ms"] =
        scraped_mean_ms(traced.server_metrics, "fleet.service.queue_wait");
    r.per_layer["fleet.client.retries"] = static_cast<double>(retries);
    r.per_layer["fleet.client.reconnects"] = static_cast<double>(reconnects);
    r.per_layer["obs.trace_overhead_frac"] =
        traced.norm_wall_s / sessions.front().norm_wall_s - 1.0;
    finish_trace(spans, options, r);
  }
  remove_tree(base);
  return r;
}

}  // namespace perfbench
