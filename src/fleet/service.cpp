#include "ash/fleet/service.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ash/mc/margin.h"
#include "ash/obs/metrics.h"
#include "ash/obs/profile.h"
#include "ash/obs/trace.h"
#include "ash/tb/experiment_runner.h"
#include "ash/util/atomic_file.h"
#include "ash/util/crc32.h"
#include "ash/util/le_bytes.h"
#include "ash/util/syscall.h"
#include "ash/util/table.h"

namespace ash::fleet {

namespace {

/// The service's durable state lives in the store under this shard id
/// (its own directory, so it can never collide with campaign shards).
constexpr int kStateShard = 0;

/// Monotonic host milliseconds for I/O deadlines (supervision-layer wall
/// clock, never part of the deterministic payload).
double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host nanoseconds since `t0` (persist timing for the state gauges).
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

// --- Fatal-signal flight event ------------------------------------------
// The flight recorder's ring is a shared file mapping, so a crashing daemon
// leaves it on disk without writing anything: the handler only records the
// signal (atomics into the mapping) and re-raises it under the previous
// disposition.  Every call here is async-signal-safe.

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
constexpr int kFatalSignalCount =
    static_cast<int>(sizeof kFatalSignals / sizeof kFatalSignals[0]);

obs::FlightRecorder* g_fatal_recorder = nullptr;
struct sigaction g_old_fatal[kFatalSignalCount];

void handle_fatal(int sig) {
  // Restore the previous dispositions first so a crash inside the handler
  // cannot recurse.
  for (int i = 0; i < kFatalSignalCount; ++i) {
    ::sigaction(kFatalSignals[i], &g_old_fatal[i], nullptr);
  }
  if (g_fatal_recorder != nullptr) {
    g_fatal_recorder->record(obs::FlightEventKind::kFatalSignal,
                             static_cast<std::uint64_t>(sig));
  }
  (void)::raise(sig);
}

/// A kBadRequest reply carrying `what` on one line: the message is a text
/// field, which the codec refuses to encode with a newline inside.
Frame bad_request(std::uint64_t request_id, std::string what) {
  std::replace(what.begin(), what.end(), '\n', ' ');
  ErrorResponse err;
  err.status = Status::kBadRequest;
  err.message = std::move(what);
  return Frame{MessageType::kErrorResponse, request_id, err.encode()};
}

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// --- ServiceState text document -----------------------------------------

constexpr char kStateHeader[] = "ash-fleet-service v1";
/// Shortest possible device line ("device 0 0\n"): a document declaring
/// more devices than its size allows is refused before anything is sized.
constexpr std::size_t kMinDeviceLineBytes = 11;

[[noreturn]] void state_error(const std::string& detail) {
  throw std::runtime_error("service state: " + detail);
}

/// One '\n'-terminated line's space-separated tokens, consumed in order.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  std::string_view next(const char* field) {
    const std::size_t sp = rest_.find(' ');
    const std::string_view tok = rest_.substr(0, sp);
    rest_ = sp == std::string_view::npos ? std::string_view{}
                                         : rest_.substr(sp + 1);
    if (tok.empty()) state_error(std::string("field '") + field + "' missing");
    return tok;
  }
  std::uint64_t u64(const char* field) {
    const std::string_view tok = next(field);
    std::uint64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc() || ptr != tok.data() + tok.size()) {
      state_error(std::string("field '") + field + "' not an unsigned integer");
    }
    return v;
  }
  double finite(const char* field) {
    const std::string_view tok = next(field);
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc() || ptr != tok.data() + tok.size() ||
        !std::isfinite(v)) {
      state_error(std::string("field '") + field + "' not a finite number");
    }
    return v;
  }
  void end(std::string_view tag) const {
    if (!rest_.empty()) {
      state_error("trailing tokens on '" + std::string(tag) + "' line");
    }
  }

 private:
  std::string_view rest_;
};

// --- Mutation log record ----------------------------------------------------

constexpr char kRecordMagic[4] = {'A', 'S', 'H', 'M'};
constexpr std::size_t kRecordCrcAt = MutationRecord::kBytes - 4;

[[noreturn]] void record_error(const std::string& detail) {
  throw std::runtime_error("mutation record: " + detail);
}

/// splitmix64's finalizer: request ids are often sequential, and linear
/// probing needs them spread.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// --- IdempotencyWindow -----------------------------------------------------

std::size_t IdempotencyWindow::Client::slot_of(
    std::uint64_t request_id) const {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = mix(request_id) & mask;; i = (i + 1) & mask) {
    if (slots[i] == 0 || acks[slots[i] - 1].request_id == request_id) {
      return i;
    }
  }
}

void IdempotencyWindow::Client::index(std::size_t position) {
  slots[slot_of(acks[position].request_id)] =
      static_cast<std::uint32_t>(position + 1);
}

void IdempotencyWindow::Client::unindex(std::uint64_t request_id) {
  // Backward-shift deletion keeps every probe chain gap-free without
  // tombstones, so a long-lived window never degrades.
  const std::size_t mask = slots.size() - 1;
  std::size_t hole = slot_of(request_id);
  slots[hole] = 0;
  for (std::size_t i = (hole + 1) & mask; slots[i] != 0; i = (i + 1) & mask) {
    const std::size_t home = mix(acks[slots[i] - 1].request_id) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots[hole] = slots[i];
      slots[i] = 0;
      hole = i;
    }
  }
}

const AppliedMutation* IdempotencyWindow::find(std::uint64_t client_id,
                                               std::uint64_t request_id) const {
  const auto it = clients_.find(client_id);
  if (it == clients_.end() || it->second.slots.empty()) return nullptr;
  const Client& client = it->second;
  const std::uint32_t slot = client.slots[client.slot_of(request_id)];
  return slot == 0 ? nullptr : &client.acks[slot - 1];
}

bool IdempotencyWindow::too_old(std::uint64_t client_id,
                                std::uint64_t request_id) const {
  const auto it = clients_.find(client_id);
  if (it == clients_.end() || !it->second.evicted_max) return false;
  return request_id <= *it->second.evicted_max &&
         find(client_id, request_id) == nullptr;
}

void IdempotencyWindow::remember(const AppliedMutation& applied) {
  if (find(applied.client_id, applied.request_id) != nullptr) {
    state_error(strformat("idempotency key (%llu, %llu) repeated",
                          static_cast<unsigned long long>(applied.client_id),
                          static_cast<unsigned long long>(applied.request_id)));
  }
  Client& client = clients_[applied.client_id];
  if (client.acks.size() < kWindow) {
    if ((client.acks.size() + 1) * 2 > client.slots.size()) {
      // Keep the table at most half full: double it and re-index.
      client.slots.assign(std::max<std::size_t>(16, 2 * client.slots.size()),
                          0);
      for (std::size_t p = 0; p < client.acks.size(); ++p) client.index(p);
    }
    client.acks.push_back(applied);
    client.index(client.acks.size() - 1);
    ++entries_;
    return;
  }
  // Full: the oldest ack leaves the window and its ring slot takes the new
  // one.
  AppliedMutation& oldest = client.acks[client.oldest];
  client.unindex(oldest.request_id);
  client.evicted_max =
      std::max(client.evicted_max.value_or(0), oldest.request_id);
  oldest = applied;
  client.index(client.oldest);
  client.oldest = (client.oldest + 1) % kWindow;
}

void IdempotencyWindow::restore_evicted(std::uint64_t client_id,
                                        std::uint64_t request_id) {
  Client& client = clients_[client_id];
  if (client.evicted_max) state_error("repeated 'evicted' line for a client");
  client.evicted_max = request_id;
}

// --- MutationRecord --------------------------------------------------------

std::string MutationRecord::encode() const {
  std::string out;
  out.reserve(kBytes);
  out.append(kRecordMagic, sizeof kRecordMagic);
  util::put_u64(out, sequence);
  util::put_u64(out, client_id);
  util::put_u64(out, request_id);
  util::put_u64(out, device_id);
  util::put_u64(out, std::bit_cast<std::uint64_t>(start.value()));
  util::put_u64(out, std::bit_cast<std::uint64_t>(duration.value()));
  util::put_u32(out, util::crc32(out));
  return out;
}

MutationRecord MutationRecord::decode(std::string_view bytes,
                                      std::uint64_t device_count) {
  if (bytes.size() != kBytes) {
    record_error(strformat("%zu bytes, a record is %zu", bytes.size(),
                           kBytes));
  }
  if (bytes.substr(0, sizeof kRecordMagic) !=
      std::string_view(kRecordMagic, sizeof kRecordMagic)) {
    record_error("bad magic");
  }
  if (util::crc32(bytes.substr(0, kRecordCrcAt)) !=
      util::get_u32(bytes, kRecordCrcAt)) {
    record_error("CRC mismatch (torn or corrupt)");
  }
  MutationRecord out;
  out.sequence = util::get_u64(bytes, 4);
  out.client_id = util::get_u64(bytes, 12);
  out.request_id = util::get_u64(bytes, 20);
  out.device_id = util::get_u64(bytes, 28);
  out.start = Seconds{std::bit_cast<double>(util::get_u64(bytes, 36))};
  out.duration = Seconds{std::bit_cast<double>(util::get_u64(bytes, 44))};
  if (out.device_id >= device_count) record_error("device id out of range");
  if (!std::isfinite(out.start.value()) ||
      !std::isfinite(out.duration.value())) {
    record_error("window time not finite");
  }
  return out;
}

// --- ServiceState ------------------------------------------------------------

ServiceState ServiceState::genesis(std::uint64_t device_count, Volts margin,
                                   std::uint64_t seed) {
  ServiceState state;
  state.margin = margin;
  state.devices.resize(device_count);
  for (std::uint64_t i = 0; i < device_count; ++i) {
    // One independent stream per device: the prior of device i never moves
    // when the fleet grows (same derivation stability as paper_fleet_shards).
    Rng rng(derive_seed(seed, i));
    state.devices[i].delta_vth = Volts{rng.uniform(0.0, 0.9 * margin.value())};
  }
  return state;
}

void ServiceState::serialize(
    const std::function<void(std::string_view)>& sink) const {
  constexpr std::size_t kPiece = 16 * 1024;
  std::string piece;
  const auto line = [&](const std::string& text) {
    piece += text;
    if (piece.size() >= kPiece) {
      sink(piece);
      piece.clear();
    }
  };
  line(std::string(kStateHeader) + "\n");
  line(strformat("sequence %llu\n", static_cast<unsigned long long>(sequence)));
  line(strformat("margin_v %.17g\n", margin.value()));
  line(strformat("devices %llu\n",
                 static_cast<unsigned long long>(devices.size())));
  for (std::size_t i = 0; i < devices.size(); ++i) {
    line(strformat("device %llu %.17g\n", static_cast<unsigned long long>(i),
                   devices[i].delta_vth.value()));
    for (const SleepWindow& w : devices[i].windows) {
      line(strformat("window %llu %.17g %.17g\n",
                     static_cast<unsigned long long>(i), w.start.value(),
                     w.duration.value()));
    }
  }
  idempotency.for_each(
      [&](const AppliedMutation& m) {
        line(strformat("applied %llu %llu %llu\n",
                       static_cast<unsigned long long>(m.client_id),
                       static_cast<unsigned long long>(m.request_id),
                       static_cast<unsigned long long>(m.windows_after)));
      },
      [&](std::uint64_t client_id, std::uint64_t request_id) {
        line(strformat("evicted %llu %llu\n",
                       static_cast<unsigned long long>(client_id),
                       static_cast<unsigned long long>(request_id)));
      });
  line("end\n");
  sink(piece);
}

std::string ServiceState::serialize() const {
  std::string out;
  serialize([&](std::string_view piece) { out.append(piece); });
  return out;
}

ServiceState ServiceState::deserialize(std::string_view bytes) {
  ServiceState state;
  bool have_sequence = false, have_margin = false, have_devices = false,
       ended = false, header = false;
  std::vector<bool> device_seen;
  std::uint64_t devices_seen = 0;
  while (!bytes.empty()) {
    const std::size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) {
      state_error("unterminated last line (truncated document)");
    }
    const std::string_view line = bytes.substr(0, nl);
    bytes.remove_prefix(nl + 1);
    if (!header) {
      if (line != kStateHeader) {
        state_error("bad header '" + std::string(line.substr(0, 64)) + "'");
      }
      header = true;
      continue;
    }
    if (ended) state_error("content after 'end'");
    Tokens tok(line);
    const std::string_view tag = tok.next("line tag");
    const auto once = [](bool& seen, const char* key) {
      if (seen) state_error(std::string("repeated key '") + key + "'");
      seen = true;
    };
    const auto need_devices = [&] {
      if (!have_devices) state_error("device data before 'devices'");
    };
    if (tag == "sequence") {
      once(have_sequence, "sequence");
      state.sequence = tok.u64("sequence");
    } else if (tag == "margin_v") {
      once(have_margin, "margin_v");
      state.margin = Volts{tok.finite("margin_v")};
    } else if (tag == "devices") {
      once(have_devices, "devices");
      const std::uint64_t n = tok.u64("devices");
      // Cap before the resize: a hostile count must never size memory.
      if (n > kMaxDevices || n > bytes.size() / kMinDeviceLineBytes) {
        state_error(strformat(
            "declared device count %llu exceeds the cap (%llu, or what "
            "%zu remaining bytes can hold)",
            static_cast<unsigned long long>(n),
            static_cast<unsigned long long>(kMaxDevices), bytes.size()));
      }
      state.devices.resize(n);
      device_seen.assign(n, false);
    } else if (tag == "device") {
      need_devices();
      const std::uint64_t id = tok.u64("device id");
      if (id >= state.devices.size()) state_error("device id out of range");
      if (device_seen[id]) state_error("repeated key 'device " +
                                       std::to_string(id) + "'");
      device_seen[id] = true;
      ++devices_seen;
      state.devices[id].delta_vth = Volts{tok.finite("device delta_vth")};
    } else if (tag == "window") {
      need_devices();
      const std::uint64_t id = tok.u64("window device");
      if (id >= state.devices.size()) state_error("window device out of range");
      SleepWindow w;
      w.start = Seconds{tok.finite("window start")};
      w.duration = Seconds{tok.finite("window duration")};
      state.devices[id].windows.push_back(w);
    } else if (tag == "applied") {
      AppliedMutation m;
      m.client_id = tok.u64("applied client");
      m.request_id = tok.u64("applied request");
      m.windows_after = tok.u64("applied windows");
      state.idempotency.remember(m);
    } else if (tag == "evicted") {
      const std::uint64_t client = tok.u64("evicted client");
      state.idempotency.restore_evicted(client, tok.u64("evicted request"));
    } else if (tag == "end") {
      ended = true;
    } else {
      state_error("unknown line tag '" + std::string(tag.substr(0, 64)) + "'");
    }
    tok.end(tag);
  }
  if (!header) state_error("empty document");
  if (!ended) state_error("missing 'end' (truncated document)");
  if (!have_sequence) state_error("missing key 'sequence'");
  if (!have_margin) state_error("missing key 'margin_v'");
  if (!have_devices) state_error("missing key 'devices'");
  if (devices_seen != state.devices.size()) {
    state_error(strformat("%llu of %zu device lines missing",
                          static_cast<unsigned long long>(
                              state.devices.size() - devices_seen),
                          state.devices.size()));
  }
  return state;
}

std::uint64_t ServiceState::apply(const MutationRecord& record) {
  DeviceAging& device = devices[record.device_id];
  const std::uint64_t windows_after = device.windows.size() + 1;
  idempotency.remember(
      AppliedMutation{record.client_id, record.request_id, windows_after});
  device.windows.push_back(SleepWindow{record.start, record.duration});
  ++sequence;
  return windows_after;
}

std::uint64_t ServiceState::total_windows() const {
  std::uint64_t n = 0;
  for (const DeviceAging& d : devices) n += d.windows.size();
  return n;
}

// --- ServiceStats --------------------------------------------------------

std::string ServiceStats::render() const {
  std::string out = "service stats:\n";
  out += strformat("  connections accepted   %llu (rejected %llu)\n",
                   static_cast<unsigned long long>(connections_accepted),
                   static_cast<unsigned long long>(connections_rejected));
  out += strformat("  evictions              %llu\n",
                   static_cast<unsigned long long>(evictions));
  out += strformat("  frame errors           %llu\n",
                   static_cast<unsigned long long>(frame_errors));
  out += strformat("  requests               %llu (shed %llu)\n",
                   static_cast<unsigned long long>(requests),
                   static_cast<unsigned long long>(shed));
  out += strformat("  responses              %llu\n",
                   static_cast<unsigned long long>(responses));
  out += strformat("  mutations              %llu (replayed %llu, "
                   "too old %llu)\n",
                   static_cast<unsigned long long>(mutations),
                   static_cast<unsigned long long>(replays),
                   static_cast<unsigned long long>(too_old));
  out += strformat("  snapshots saved        %llu (log appends %llu)\n",
                   static_cast<unsigned long long>(snapshots_saved),
                   static_cast<unsigned long long>(log_appends));
  return out;
}

void ServiceStats::publish(obs::Registry& registry,
                           const std::string& prefix) const {
  registry.counter(prefix + "connections_accepted").set(connections_accepted);
  registry.counter(prefix + "connections_rejected").set(connections_rejected);
  registry.counter(prefix + "evictions").set(evictions);
  registry.counter(prefix + "frame_errors").set(frame_errors);
  registry.counter(prefix + "requests").set(requests);
  registry.counter(prefix + "shed").set(shed);
  registry.counter(prefix + "responses").set(responses);
  registry.counter(prefix + "mutations").set(mutations);
  registry.counter(prefix + "replays").set(replays);
  registry.counter(prefix + "too_old").set(too_old);
  registry.counter(prefix + "snapshots_saved").set(snapshots_saved);
  registry.counter(prefix + "log_appends").set(log_appends);
}

// --- Service -------------------------------------------------------------

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      state_store_(config_.state_dir),
      model_(config_.physics),
      recorder_(config_.flight_recorder_capacity,
                config_.flight_recorder_path) {
  if (config_.devices < 1 || config_.devices > ServiceState::kMaxDevices) {
    throw std::invalid_argument("service: device count outside 1.." +
                                std::to_string(ServiceState::kMaxDevices));
  }
  if (config_.max_request_queue < 1 || config_.max_connections < 1 ||
      config_.io_timeout_ms < 1 || config_.poll_interval_ms < 1) {
    throw std::invalid_argument("service: nonsensical limits");
  }
  sockaddr_un addr{};
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof addr.sun_path) {
    throw std::invalid_argument("service: bad socket path '" +
                                config_.socket_path + "'");
  }
  if (config_.instrument) {
    // Register once here; the request path only dereferences pointers.
    // 1 µs .. 100 s covers a unix-socket round trip through a snapshot
    // write at 4 buckets/decade.
    const obs::HistogramOptions lat{1e-6, 1e2, 4};
    auto& reg = obs::registry();
    const auto slot = [&](MessageType type, const char* name) {
      latency_[static_cast<std::size_t>(type)] = &reg.histogram(name, lat);
    };
    slot(MessageType::kPingRequest, "fleet.service.latency.ping");
    slot(MessageType::kMarginRequest, "fleet.service.latency.margin");
    slot(MessageType::kMarginBatchRequest,
         "fleet.service.latency.margin_batch");
    slot(MessageType::kRejuvenationRequest,
         "fleet.service.latency.rejuvenation");
    slot(MessageType::kScheduleSleepRequest,
         "fleet.service.latency.schedule_sleep");
    slot(MessageType::kStatusRequest, "fleet.service.latency.status");
    slot(MessageType::kMetricsRequest, "fleet.service.latency.metrics");
    slot(MessageType::kProfileRequest, "fleet.service.latency.profile");
    slot(MessageType::kHealthRequest, "fleet.service.latency.health");
    queue_wait_ = &reg.histogram("fleet.service.queue_wait", lat);
  }
  const auto loaded = state_store_.load_newest_valid(kStateShard);
  if (loaded) {
    // Resume exactly where the last acknowledged mutation left us — the
    // crash-consistency half of the protocol contract: the newest valid
    // snapshot, then the log records appended after it.
    state_ = ServiceState::deserialize(loaded->payload);
    snapshot_bytes_ = loaded->payload.size();
    segment_base_ = state_.sequence;
    replay_log();
    last_durable_sequence_ = state_.sequence;
  } else {
    state_ = ServiceState::genesis(config_.devices, config_.margin,
                                   config_.seed);
  }
  recorder_.record(obs::FlightEventKind::kDaemonStart, state_.sequence);
  if (loaded) {
    recorder_.record(obs::FlightEventKind::kStateLoaded, state_.sequence,
                     log_records());
    if (log_records() >= kCompactEvery) save_state();
  } else {
    recorder_.record(obs::FlightEventKind::kStateGenesis);
    save_state();
  }
}

void Service::replay_log() {
  for (const SegmentFile& segment : state_store_.segment_files(kStateShard)) {
    if (segment.base < segment_base_) continue;  // before the snapshot
    if (segment.base != state_.sequence) {
      // Not where recovery reached: stale, and a segment started at this
      // base later must begin empty — so it goes now, durably.
      state_store_.remove_segment(segment);
      continue;
    }
    std::string bytes;
    try {
      bytes = util::read_file(segment.path);
    } catch (const std::system_error&) {
      // Unreadable counts as empty: the segment is cut at byte 0.
    }
    const std::string_view view(bytes);
    std::size_t valid = 0;
    for (; valid + MutationRecord::kBytes <= view.size();
         valid += MutationRecord::kBytes) {
      MutationRecord record;
      try {
        record = MutationRecord::decode(
            view.substr(valid, MutationRecord::kBytes), state_.devices.size());
      } catch (const std::runtime_error&) {
        break;  // CRC-bad or invalid record: the tail starts here
      }
      // Only the next sequence number of a key never acked before extends
      // the state; anything else is a stale or corrupt tail.
      if (record.sequence != state_.sequence + 1 ||
          state_.find_applied(record.client_id, record.request_id) !=
              nullptr ||
          state_.idempotency.too_old(record.client_id, record.request_id)) {
        break;
      }
      state_.apply(record);
    }
    segment_base_ = segment.base;
    segment_bytes_ = valid;
  }
}

void Service::save_state() {
  const auto t0 = config_.instrument ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
  // Streamed in pieces: the whole document is never held in memory, which
  // keeps compaction inside the daemon's memory budget.
  std::uint64_t payload_bytes = 0;
  state_store_.save(kStateShard, state_.sequence,
                    [&](const CheckpointStore::PayloadSink& sink) {
                      state_.serialize([&](std::string_view piece) {
                        payload_bytes += piece.size();
                        sink(piece);
                      });
                    });
  state_store_.prune(kStateShard, kSnapshotsKept);
  // The next segment follows this snapshot; it is created (empty) by the
  // first append after it.
  segment_ = LogSegment{};
  segment_base_ = state_.sequence;
  segment_bytes_ = 0;
  ++stats_.snapshots_saved;
  last_durable_sequence_ = state_.sequence;
  snapshot_bytes_ = payload_bytes;
  if (config_.instrument) last_persist_ns_ = elapsed_ns(t0);
  recorder_.record(obs::FlightEventKind::kSnapshotSaved, state_.sequence,
                   snapshot_bytes_);
  if (obs::tracing()) {
    obs::instant(obs::EventKind::kFleetSnapshot, "state", "fleet.service",
                 {{"sequence", std::to_string(state_.sequence)}});
  }
  // Each compaction makes the flight ring power-loss durable too; between
  // them the mapped ring needs no syscall to survive a kill.
  (void)recorder_.sync();
}

void Service::append_record(const MutationRecord& record) {
  const auto t0 = config_.instrument ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
  if (!segment_.is_open()) {
    segment_ = state_store_.open_segment(kStateShard, segment_base_,
                                         segment_bytes_);
  }
  segment_.append(record.encode());
  segment_bytes_ += MutationRecord::kBytes;
  ++stats_.log_appends;
  if (config_.instrument) last_persist_ns_ = elapsed_ns(t0);
}

obs::Histogram* Service::latency_histogram(MessageType type) const {
  const auto raw = static_cast<std::size_t>(type);
  return raw < latency_.size() ? latency_[raw] : nullptr;
}

void Service::publish_volatile(obs::Registry& registry) const {
  stats_.publish(registry);
  registry.gauge("fleet.service.state.log_records")
      .set(static_cast<double>(log_records()));
  registry.gauge("fleet.service.state.snapshot_bytes")
      .set(static_cast<double>(snapshot_bytes_));
  registry.gauge("fleet.service.state.idempotency_entries")
      .set(static_cast<double>(state_.idempotency.entries()));
  registry.gauge("fleet.service.state.last_persist_ns")
      .set(static_cast<double>(last_persist_ns_));
  protocol_tallies().publish(registry);
  registry.counter("fleet.service.health.poll_iterations")
      .set(health_.poll_iterations);
  registry.counter("fleet.service.health.connections")
      .set(health_.connections);
  registry.counter("fleet.service.health.connections_high_water")
      .set(health_.connections_high_water);
  registry.counter("fleet.service.health.queue_depth_high_water")
      .set(health_.queue_depth_high_water);
  registry.counter("fleet.service.health.snapshot_lag").set(snapshot_lag());
  registry.counter("fleet.service.health.draining").set(draining_ ? 1 : 0);
}

Frame Service::respond(const Frame& request) {
  // Uninstrumented, the timer holds a null pointer and performs no clock
  // read; without a trace sink the span allocates nothing.
  const obs::ScopedLatencyTimer timer(latency_histogram(request.type));
  obs::Span span(obs::EventKind::kFleetRequest, to_string(request.type),
                 "fleet.service");
  if (span.active()) {
    span.arg("request_id", std::to_string(request.request_id));
  }
  try {
    switch (request.type) {
      case MessageType::kPingRequest:
        (void)PingRequest::parse(request.payload);
        return Frame{MessageType::kPingResponse, request.request_id,
                     PingResponse{}.encode()};
      case MessageType::kMarginRequest:
        return respond_margin(request);
      case MessageType::kMarginBatchRequest:
        return respond_margin_batch(request);
      case MessageType::kRejuvenationRequest:
        return respond_rejuvenation(request);
      case MessageType::kScheduleSleepRequest:
        return respond_schedule_sleep(request);
      case MessageType::kStatusRequest:
        return respond_status(request);
      case MessageType::kMetricsRequest:
        return respond_metrics(request);
      case MessageType::kProfileRequest:
        return respond_profile(request);
      case MessageType::kHealthRequest:
        return respond_health(request);
      default:
        throw ProtocolError(std::string("not a request type: ") +
                            to_string(request.type));
    }
  } catch (const ProtocolError& e) {
    return bad_request(request.request_id, e.what());
  } catch (const std::invalid_argument& e) {
    return bad_request(request.request_id, e.what());
  }
}

Frame Service::respond_margin(const Frame& request) {
  const MarginRequest req = MarginRequest::parse(request.payload);
  if (req.device_id >= state_.devices.size()) {
    ErrorResponse err;
    err.status = Status::kUnknownDevice;
    err.message = strformat("device %llu not tracked (fleet has %llu)",
                            static_cast<unsigned long long>(req.device_id),
                            static_cast<unsigned long long>(
                                state_.devices.size()));
    return Frame{MessageType::kErrorResponse, request.request_id,
                 err.encode()};
  }
  mc::MarginQuery query;
  query.delta_vth = state_.devices[req.device_id].delta_vth;
  query.margin = state_.margin;
  query.duty = req.duty;
  query.vdd = req.vdd;
  query.temp = req.temp;
  query.horizon = req.horizon;
  const mc::MarginOutlook outlook = mc::margin_outlook(model_, query);
  MarginResponse resp;
  resp.status = Status::kOk;
  resp.crosses = outlook.crosses;
  resp.time_to_margin = outlook.time_to_margin;
  resp.delta_vth = query.delta_vth;
  resp.margin = query.margin;
  return Frame{MessageType::kMarginResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_margin_batch(const Frame& request) {
  const MarginBatchRequest req = MarginBatchRequest::parse(request.payload);
  for (std::uint64_t id : req.device_ids) {
    if (id >= state_.devices.size()) {
      ErrorResponse err;
      err.status = Status::kUnknownDevice;
      err.message = strformat("device %llu not tracked (fleet has %llu)",
                              static_cast<unsigned long long>(id),
                              static_cast<unsigned long long>(
                                  state_.devices.size()));
      return Frame{MessageType::kErrorResponse, request.request_id,
                   err.encode()};
    }
  }
  std::vector<mc::MarginQuery> queries;
  queries.reserve(req.device_ids.size());
  for (std::uint64_t id : req.device_ids) {
    mc::MarginQuery query;
    query.delta_vth = state_.devices[id].delta_vth;
    query.margin = state_.margin;
    query.duty = req.duty;
    query.vdd = req.vdd;
    query.temp = req.temp;
    query.horizon = req.horizon;
    queries.push_back(query);
  }
  // The batched overload hoists the shared-schedule work once; each row
  // stays bit-identical to the single-device respond_margin answer.
  const std::vector<mc::MarginOutlook> outlooks =
      mc::margin_outlook(model_, queries);
  MarginBatchResponse resp;
  resp.status = Status::kOk;
  resp.margin = state_.margin;
  resp.rows.reserve(outlooks.size());
  for (std::size_t i = 0; i < outlooks.size(); ++i) {
    MarginBatchRow row;
    row.device_id = req.device_ids[i];
    row.crosses = outlooks[i].crosses;
    row.time_to_margin = outlooks[i].time_to_margin;
    row.delta_vth = queries[i].delta_vth;
    resp.rows.push_back(row);
  }
  return Frame{MessageType::kMarginBatchResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_rejuvenation(const Frame& request) {
  (void)RejuvenationRequest::parse(request.payload);  // validate only
  RejuvenationResponse resp;
  resp.status = Status::kOk;
  if (!config_.campaign_dir.empty() && config_.shard_count > 0) {
    try {
      const CheckpointStore campaigns(config_.campaign_dir);
      for (int sid = 0; sid < config_.shard_count; ++sid) {
        const auto loaded = campaigns.load_newest_valid(sid);
        if (!loaded) continue;
        try {
          const auto checkpoint =
              tb::CampaignCheckpoint::deserialize(loaded->payload);
          const double degradation =
              checkpoint.log.fractional_degradation();
          // Strict > keeps the lowest shard id on ties — deterministic.
          if (!resp.any || degradation > resp.degradation) {
            resp.any = true;
            resp.shard_id = sid;
            resp.degradation = degradation;
          }
        } catch (const std::exception&) {
          continue;  // unreadable snapshot: skip, never crash the query
        }
      }
    } catch (const std::runtime_error&) {
      // campaign_dir unusable: answer "no shard" rather than fail
    }
  }
  return Frame{MessageType::kRejuvenationResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_schedule_sleep(const Frame& request) {
  const ScheduleSleepRequest req =
      ScheduleSleepRequest::parse(request.payload);
  const auto ack = [&](std::uint64_t windows_after) {
    ScheduleSleepResponse resp;
    resp.status = Status::kOk;
    resp.newly_applied = true;
    resp.windows = windows_after;
    return Frame{MessageType::kScheduleSleepResponse, request.request_id,
                 resp.encode()};
  };
  if (const AppliedMutation* m =
          state_.find_applied(req.client_id, request.request_id)) {
    // Idempotent replay: the original acknowledgement bytes, rebuilt — a
    // retrying client cannot double-book and cannot tell it retried.
    ++stats_.replays;
    recorder_.record(obs::FlightEventKind::kMutationReplayed, req.client_id,
                     request.request_id);
    return ack(m->windows_after);
  }
  if (state_.idempotency.too_old(req.client_id, request.request_id)) {
    // Its ack left the window: neither replay (unknown bytes) nor apply
    // (it may have been applied once already).
    ++stats_.too_old;
    ErrorResponse err;
    err.status = Status::kTooOldToReplay;
    err.message = strformat(
        "request %llu of client %llu is at or below the newest id evicted "
        "from its idempotency window (last %zu acks)",
        static_cast<unsigned long long>(request.request_id),
        static_cast<unsigned long long>(req.client_id),
        IdempotencyWindow::kWindow);
    return Frame{MessageType::kErrorResponse, request.request_id,
                 err.encode()};
  }
  if (req.device_id >= state_.devices.size()) {
    ErrorResponse err;
    err.status = Status::kUnknownDevice;
    err.message = strformat("device %llu not tracked (fleet has %llu)",
                            static_cast<unsigned long long>(req.device_id),
                            static_cast<unsigned long long>(
                                state_.devices.size()));
    return Frame{MessageType::kErrorResponse, request.request_id,
                 err.encode()};
  }
  MutationRecord record;
  record.sequence = state_.sequence + 1;
  record.client_id = req.client_id;
  record.request_id = request.request_id;
  record.device_id = req.device_id;
  record.start = req.start;
  record.duration = req.duration;
  // Write-ahead: the record is durable *before* the state changes and the
  // ack is queued, so a SIGKILL in between replays the same ack instead of
  // double-applying.
  append_record(record);
  const std::uint64_t windows_after = state_.apply(record);
  last_durable_sequence_ = state_.sequence;
  recorder_.record(obs::FlightEventKind::kMutationApplied, req.device_id,
                   state_.sequence);
  if (obs::tracing()) {
    obs::instant(obs::EventKind::kFleetApply, "schedule_sleep",
                 "fleet.service",
                 {{"client_id", std::to_string(req.client_id)},
                  {"request_id", std::to_string(request.request_id)},
                  {"device", std::to_string(req.device_id)}});
  }
  if (log_records() >= kCompactEvery) save_state();
  ++stats_.mutations;
  return ack(windows_after);
}

Frame Service::respond_status(const Frame& request) {
  (void)StatusRequest::parse(request.payload);  // validate only
  StatusResponse resp;
  resp.status = Status::kOk;
  resp.devices = state_.devices.size();
  resp.windows = state_.total_windows();
  resp.sequence = state_.sequence;
  resp.draining = draining_;
  return Frame{MessageType::kStatusResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_metrics(const Frame& request) {
  const MetricsRequest req = MetricsRequest::parse(request.payload);
  // Refresh the registry from every volatile tally first, so a scrape is
  // never staler than the poll tick it landed on.
  publish_volatile(obs::registry());
  MetricsResponse resp;
  resp.status = Status::kOk;
  resp.text = obs::registry().snapshot().filtered(req.prefix).render();
  return Frame{MessageType::kMetricsResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_profile(const Frame& request) {
  (void)ProfileRequest::parse(request.payload);  // validate only
  ProfileResponse resp;
  resp.status = Status::kOk;
  resp.profiling = obs::profiling();
  for (const obs::KernelProfile& k : obs::profile_snapshot()) {
    ProfileEntry entry;
    entry.kernel = obs::to_string(k.kernel);
    entry.calls = k.calls;
    entry.total_ns = k.total_ns;
    resp.kernels.push_back(std::move(entry));
  }
  return Frame{MessageType::kProfileResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_health(const Frame& request) {
  (void)HealthRequest::parse(request.payload);  // validate only
  HealthResponse resp;
  resp.status = Status::kOk;
  resp.poll_iterations = health_.poll_iterations;
  resp.connections = health_.connections;
  resp.connections_high_water = health_.connections_high_water;
  resp.queue_depth_high_water = health_.queue_depth_high_water;
  resp.requests = stats_.requests;
  resp.shed = stats_.shed;
  resp.snapshot_lag = snapshot_lag();
  resp.draining = draining_;
  return Frame{MessageType::kHealthResponse, request.request_id,
               resp.encode()};
}

std::vector<Frame> Service::process_tick(const std::vector<Frame>& requests) {
  std::vector<Frame> responses;
  responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i < static_cast<std::size_t>(config_.max_request_queue)) {
      ++stats_.requests;
      responses.push_back(respond(requests[i]));
    } else {
      // Bounded queue: explicit load shed, never silent latency or OOM.
      ++stats_.shed;
      recorder_.record(obs::FlightEventKind::kRequestShed,
                       requests[i].request_id);
      ErrorResponse err;
      err.status = Status::kOverloaded;
      err.message = strformat("request queue full (%d admitted per tick)",
                              config_.max_request_queue);
      responses.push_back(Frame{MessageType::kErrorResponse,
                                requests[i].request_id, err.encode()});
    }
    ++stats_.responses;
  }
  return responses;
}

void Service::run() {
  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::string outbox;
    double last_io_ms = 0.0;
    bool dead = false;
  };

  const int listen_fd = ::socket(
      AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) throw std::runtime_error(errno_message("socket"));
  ::unlink(config_.socket_path.c_str());  // stale path from a SIGKILL
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  if (util::retry_eintr([&] {
        return ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr);
      }) < 0) {
    ::close(listen_fd);
    throw std::runtime_error(errno_message("bind"));
  }
  if (util::retry_eintr([&] { return ::listen(listen_fd, 64); }) < 0) {
    ::close(listen_fd);
    throw std::runtime_error(errno_message("listen"));
  }

  // SIGTERM/SIGINT flip the drain flag; no SA_RESTART so poll() wakes.
  g_stop = 0;
  struct sigaction stop_action{};
  stop_action.sa_handler = handle_stop;
  sigemptyset(&stop_action.sa_mask);
  struct sigaction old_term{}, old_int{}, old_pipe{};
  ::sigaction(SIGTERM, &stop_action, &old_term);
  ::sigaction(SIGINT, &stop_action, &old_int);
  struct sigaction ignore_pipe{};
  ignore_pipe.sa_handler = SIG_IGN;
  sigemptyset(&ignore_pipe.sa_mask);
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  // Fatal signals land in the flight ring (restored on return); only a
  // file-backed ring outlives the crash.
  const bool fatal_record =
      recorder_.enabled() && !config_.flight_recorder_path.empty();
  if (fatal_record) {
    g_fatal_recorder = &recorder_;
    struct sigaction fatal_action{};
    fatal_action.sa_handler = handle_fatal;
    sigemptyset(&fatal_action.sa_mask);
    for (int i = 0; i < kFatalSignalCount; ++i) {
      ::sigaction(kFatalSignals[i], &fatal_action, &g_old_fatal[i]);
    }
  }

  std::vector<Conn> conns;
  std::vector<pollfd> fds;
  std::vector<std::pair<std::size_t, Frame>> tick_requests;
  std::vector<double> tick_decode_ms;

  while (g_stop == 0) {
    ++health_.poll_iterations;
    fds.clear();
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    for (const Conn& c : conns) {
      short events = POLLIN;
      if (!c.outbox.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
    }
    if (util::retry_eintr([&] {
          return ::poll(fds.data(), fds.size(), config_.poll_interval_ms);
        }) < 0) {
      break;  // unexpected poll failure: drain and exit
    }
    const double now = now_ms();

    // Accept everything pending; beyond the cap, turn clients away with
    // an immediate close (their backoff handles the rest).
    for (;;) {
      const int fd = util::retry_eintr([&] {
        return ::accept4(listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      });
      if (fd < 0) break;
      if (conns.size() >= static_cast<std::size_t>(config_.max_connections)) {
        ::close(fd);
        ++stats_.connections_rejected;
        recorder_.record(obs::FlightEventKind::kConnectionRejected);
        continue;
      }
      Conn conn;
      conn.fd = fd;
      conn.last_io_ms = now;
      conns.push_back(std::move(conn));
      ++stats_.connections_accepted;
      recorder_.record(obs::FlightEventKind::kConnectionAccepted,
                       conns.size());
      if (obs::tracing()) {
        obs::instant(obs::EventKind::kFleetAccept, "accept", "fleet.service",
                     {{"connections", std::to_string(conns.size())}});
      }
    }
    health_.connections_high_water =
        std::max(health_.connections_high_water,
                 static_cast<std::uint64_t>(conns.size()));

    // Read: drain every readable connection into its frame reader; a
    // framing violation poisons the reader and the connection dies —
    // resynchronising inside a hostile byte stream is not a thing.
    tick_requests.clear();
    tick_decode_ms.clear();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead) continue;
      char buf[65536];
      for (;;) {
        const ssize_t n = util::retry_eintr(
            [&] { return ::recv(c.fd, buf, sizeof buf, 0); });
        if (n > 0) {
          c.last_io_ms = now;
          try {
            c.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          } catch (const ProtocolError& e) {
            ++stats_.frame_errors;
            recorder_.record(
                obs::FlightEventKind::kFrameError,
                static_cast<std::uint64_t>(e.violation()));
            c.dead = true;
            break;
          }
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        c.dead = true;  // EOF or hard error
        break;
      }
      while (!c.dead) {
        try {
          auto frame = c.reader.next();
          if (!frame) break;
          tick_requests.emplace_back(i, std::move(*frame));
          if (queue_wait_ != nullptr) tick_decode_ms.push_back(now_ms());
        } catch (const ProtocolError& e) {
          ++stats_.frame_errors;
          recorder_.record(obs::FlightEventKind::kFrameError,
                           static_cast<std::uint64_t>(e.violation()));
          c.dead = true;
        }
      }
    }
    health_.queue_depth_high_water =
        std::max(health_.queue_depth_high_water,
                 static_cast<std::uint64_t>(tick_requests.size()));

    // Process this tick's admitted requests; shed the overflow.
    if (!tick_requests.empty()) {
      std::vector<Frame> requests;
      requests.reserve(tick_requests.size());
      for (auto& [conn_idx, frame] : tick_requests) {
        requests.push_back(std::move(frame));
      }
      if (queue_wait_ != nullptr) {
        // Decode-to-dispatch wait, in seconds: how long a decoded frame
        // sat behind this tick's socket reads before processing began.
        const double dispatch_ms = now_ms();
        for (const double decoded_ms : tick_decode_ms) {
          queue_wait_->observe((dispatch_ms - decoded_ms) * 1e-3);
        }
      }
      const std::vector<Frame> responses = process_tick(requests);
      for (std::size_t r = 0; r < responses.size(); ++r) {
        Conn& c = conns[tick_requests[r].first];
        if (c.dead) continue;
        c.outbox += frame_reply(responses[r]);
        if (obs::tracing()) {
          obs::instant(
              obs::EventKind::kFleetAck, to_string(responses[r].type),
              "fleet.service",
              {{"request_id", std::to_string(responses[r].request_id)}});
        }
      }
    }

    // Write what fits; a client that never drains hits the deadline below.
    for (Conn& c : conns) {
      if (c.dead || c.outbox.empty()) continue;
      const ssize_t n = util::retry_eintr([&] {
        return ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
      });
      if (n > 0) {
        c.outbox.erase(0, static_cast<std::size_t>(n));
        c.last_io_ms = now;
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        c.dead = true;
      }
    }

    // Slow-loris eviction: pending work + no byte moved within the
    // deadline means the peer is stalling us — drop it.
    for (Conn& c : conns) {
      if (c.dead) continue;
      const bool pending = c.reader.buffered() > 0 || !c.outbox.empty();
      if (pending && now - c.last_io_ms > config_.io_timeout_ms) {
        c.dead = true;
        ++stats_.evictions;
        recorder_.record(obs::FlightEventKind::kEviction);
      }
    }

    for (std::size_t i = conns.size(); i-- > 0;) {
      if (conns[i].dead) {
        ::close(conns[i].fd);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    health_.connections = conns.size();
  }

  // Graceful drain: no new connections, flush what is owed, then persist.
  draining_ = true;
  recorder_.record(obs::FlightEventKind::kDrainBegin);
  ::close(listen_fd);
  const double drain_deadline = now_ms() + config_.io_timeout_ms;
  for (;;) {
    bool owed = false;
    for (Conn& c : conns) owed = owed || (!c.dead && !c.outbox.empty());
    if (!owed || now_ms() > drain_deadline) break;
    for (Conn& c : conns) {
      if (c.dead || c.outbox.empty()) continue;
      const ssize_t n = util::retry_eintr([&] {
        return ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
      });
      if (n > 0) {
        c.outbox.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        c.dead = true;
      }
    }
    pollfd tick{conns.empty() ? -1 : conns.front().fd, POLLOUT, 0};
    (void)util::retry_eintr([&] { return ::poll(&tick, 1, 10); });
  }
  for (Conn& c : conns) ::close(c.fd);
  conns.clear();

  // The final durable checkpoint of the drain contract.
  save_state();

  // Crash-consistent metrics dump: every volatile tally published, then
  // one atomic write — a kill mid-drain leaves the previous complete
  // file, never a torn one.
  publish_volatile(obs::registry());
  if (!config_.metrics_path.empty()) {
    std::ostringstream os;
    obs::registry().snapshot().write(os);
    util::atomic_write_file(config_.metrics_path, os.str());
  }

  recorder_.record(obs::FlightEventKind::kDrainEnd);
  (void)recorder_.sync();

  ::unlink(config_.socket_path.c_str());
  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGPIPE, &old_pipe, nullptr);
  if (fatal_record) {
    for (int i = 0; i < kFatalSignalCount; ++i) {
      ::sigaction(kFatalSignals[i], &g_old_fatal[i], nullptr);
    }
    g_fatal_recorder = nullptr;
  }
}

}  // namespace ash::fleet
