#pragma once

/// \file service.h
/// The resident fleet aging service behind `ash_fleetd` (ROADMAP item 1).
///
/// `Service` keeps the fleet substrate resident and answers concurrent
/// queries over a Unix-domain socket speaking the CRC-framed protocol of
/// ash/fleet/protocol.h:
///
///   * **margin**: "given this duty cycle, when does device X cross its
///     margin?" — the device's durable odometer estimate projected forward
///     with `mc::margin_outlook` (the paper's closed-form BTI law);
///   * **rejuvenation**: "which shard needs rejuvenation next epoch?" —
///     shards ranked by the fractional frequency degradation of their
///     newest *valid* durable campaign snapshot (`CheckpointStore`);
///   * **schedule-sleep**: the one mutation — book a recovery-sleep window
///     for a device, crash-consistently (see below);
///   * **status / ping**: deterministic state summary and liveness.
///
/// Robustness contract, pinned under `ctest -L faults`:
///
///   * every byte off the wire is adversarial — framing violations poison
///     the connection and it is dropped, exactly as `CheckpointStore`
///     refuses a torn snapshot;
///   * per-connection I/O deadlines evict slow-loris clients that park a
///     half-sent frame or never drain their responses;
///   * the per-tick request queue is bounded: requests beyond
///     `max_request_queue` are shed with `Status::kOverloaded` instead of
///     growing memory — explicit backpressure, never silent latency;
///   * mutations are **write-ahead**: each newly applied mutation is one
///     CRC-framed MutationRecord appended (write + fdatasync) to the live
///     log segment *before* the acknowledgement is queued, so a daemon
///     SIGKILLed between apply and ack replays the original acknowledgement
///     bytes when the client retries — a retrying client can never
///     double-book a window.  Every kCompactEvery records the whole state
///     (idempotency table included) is compacted into a snapshot and a
///     new segment begins, so a mutation costs the same however long the
///     service has run;
///   * idempotency is bounded: each client's last IdempotencyWindow::kWindow
///     acks replay; a miss at or below the highest id evicted from that
///     window is refused with Status::kTooOldToReplay and changes nothing;
///   * SIGTERM drains gracefully: stop accepting, answer what is queued,
///     flush outboxes, persist a final snapshot, exit;
///   * restart loads the newest valid snapshot and replays the log forward
///     from it in contiguous sequence order, cutting a torn or CRC-bad tail,
///     so post-restart answers are consistent with the last acknowledged
///     state.
///
/// Operational tallies are published as `fleet.service.*` metrics through
/// `ash::obs`; they are deliberately kept out of response payloads so a
/// chaos-ridden run and an undisturbed run answer with identical bytes.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ash/bti/closed_form.h"
#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/protocol.h"
#include "ash/obs/flight_recorder.h"
#include "ash/util/random.h"
#include "ash/util/units.h"

namespace ash::obs {
class Registry;
class Histogram;
}  // namespace ash::obs

namespace ash::fleet {

/// Service tunables.  Timings are host-time milliseconds — serving real
/// sockets is the one fleet layer that legitimately lives on the wall
/// clock; nothing here feeds back into the simulated physics.
struct ServiceConfig {
  /// Unix-domain socket path the daemon binds (re-created on startup).
  std::string socket_path;
  /// Directory for durable service-state snapshots and log segments (must
  /// exist, writable).
  std::string state_dir;
  /// Directory of fleet campaign snapshots the rejuvenation query ranks
  /// (typically FleetConfig::checkpoint_dir); empty disables the scan.
  std::string campaign_dir;
  /// Shard ids 0..shard_count-1 are scanned in `campaign_dir`.
  int shard_count = 0;
  /// Devices tracked (ids 0..devices-1).
  std::uint64_t devices = 64;
  /// Per-device aging budget (match mc::ReliabilityConfig).
  Volts margin{12e-3};
  /// Seed of the per-device aging priors (genesis state).
  std::uint64_t seed = default_seed(SeedStream::kFleetService);
  /// Closed-form physics of the margin projection.
  bti::ClosedFormParameters physics;

  /// Connection cap; clients beyond it are turned away at accept.
  int max_connections = 64;
  /// Requests admitted per tick; the rest are shed with kOverloaded.
  int max_request_queue = 8;
  /// Per-connection I/O deadline: a connection with a half-read frame or
  /// an undrained outbox idle this long is evicted (slow-loris defense).
  int io_timeout_ms = 2000;
  /// Poll tick; also bounds SIGTERM reaction latency.
  int poll_interval_ms = 20;
  /// When nonempty, the drain path writes the metrics snapshot here.
  std::string metrics_path;

  /// Request-path instrumentation switch: per-verb latency and queue-wait
  /// histograms.  Off, the request path performs no clock reads at all
  /// (null histogram pointers; see obs::ScopedLatencyTimer).
  bool instrument = true;
  /// When nonempty, the flight recorder's ring lives in this file (a
  /// shared mapping, truncated at startup): every event is in the page
  /// cache at once and survives SIGKILL and fatal signals; it is made
  /// power-loss durable at every snapshot and at drain.  The service throws
  /// at construction when the file cannot be created.
  std::string flight_recorder_path;
  /// Ring capacity; 0 disables the recorder (record() = one branch).
  std::size_t flight_recorder_capacity = 256;
};

/// One booked recovery-sleep window.
struct SleepWindow {
  Seconds start{0.0};
  Seconds duration{0.0};
};

/// Durable per-device state.
struct DeviceAging {
  /// Odometer-style estimate of the device's current DeltaVth.
  Volts delta_vth{0.0};
  std::vector<SleepWindow> windows;
};

/// One applied mutation, remembered for idempotent replay: a retry of the
/// same (client, request) gets `windows_after` re-encoded into the exact
/// acknowledgement bytes the first delivery produced.
struct AppliedMutation {
  std::uint64_t client_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t windows_after = 0;
};

/// The idempotency table: per client, a hashed window of its last
/// `kWindow` acknowledgements plus the highest request id evicted from it.
/// Lookups are O(1) and memory is proportional to the acks held — at most
/// kWindow per client, however long the service has run.
class IdempotencyWindow {
 public:
  static constexpr std::size_t kWindow = 1024;

  /// The remembered ack of (client, request), or nullptr.  The pointer is
  /// valid until the next remember().
  const AppliedMutation* find(std::uint64_t client_id,
                              std::uint64_t request_id) const;
  /// True when `request_id` is a miss at or below the highest id already
  /// evicted from the client's window: its ack can no longer be rebuilt,
  /// so the request must neither replay nor apply.
  bool too_old(std::uint64_t client_id, std::uint64_t request_id) const;
  /// Remember a newly applied mutation, evicting the client's oldest ack
  /// once it holds more than kWindow.  The (client, request) key must be
  /// new; throws std::runtime_error otherwise.
  void remember(const AppliedMutation& applied);
  /// Acks held, over all clients.
  std::size_t entries() const { return entries_; }

  /// Per client (ascending id) its acks oldest first, then its evicted
  /// high-water mark when anything was evicted.
  template <class Ack, class Evicted>
  void for_each(Ack&& ack, Evicted&& evicted) const {
    for (const auto& [client_id, client] : clients_) {
      for (std::size_t i = 0; i < client.acks.size(); ++i) {
        ack(client.acks[(client.oldest + i) % client.acks.size()]);
      }
      if (client.evicted_max) evicted(client_id, *client.evicted_max);
    }
  }
  /// Restore the evicted high-water mark of one client (deserialize only).
  void restore_evicted(std::uint64_t client_id, std::uint64_t request_id);

 private:
  /// One client's window: its acks as a ring (grown to kWindow, then
  /// overwritten oldest-first) indexed by an open-addressing hash of the
  /// request ids (slot = ring position + 1, 0 = empty; linear probing, at
  /// most half full).  A flat table rather than std::unordered_map: one
  /// allocation per client instead of one per ack, which measurably kept
  /// the daemon's peak RSS inside its budget.
  struct Client {
    std::vector<AppliedMutation> acks;
    std::size_t oldest = 0;
    std::vector<std::uint32_t> slots;
    std::optional<std::uint64_t> evicted_max;

    /// The slot holding `request_id`, or the empty slot it would take.
    std::size_t slot_of(std::uint64_t request_id) const;
    void index(std::size_t position);
    void unindex(std::uint64_t request_id);
  };
  std::map<std::uint64_t, Client> clients_;
  std::size_t entries_ = 0;
};

/// One schedule-sleep mutation as the append-only log stores it: a fixed
/// 56-byte CRC-framed binary record, every double as its raw IEEE-754
/// bits so replay is bit-exact.
///
///   offset  size  field
///        0     4  magic "ASHM"
///        4     8  sequence (u64, little-endian; the state sequence after
///                 this mutation)
///       12     8  client id       20  8  request id     28  8  device id
///       36     8  start bits      44  8  duration bits
///       52     4  CRC-32 of bytes 0..51
struct MutationRecord {
  static constexpr std::size_t kBytes = 56;

  std::uint64_t sequence = 0;
  std::uint64_t client_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t device_id = 0;
  Seconds start{0.0};
  Seconds duration{0.0};

  std::string encode() const;
  /// Verify and decode exactly kBytes bytes.  Throws std::runtime_error
  /// naming the failed check: size, magic, CRC, a device id at or beyond
  /// `device_count`, or a non-finite time.
  static MutationRecord decode(std::string_view bytes,
                               std::uint64_t device_count);
};

/// The service's durable state: a pure function of (genesis config, the
/// sequence of applied mutations).  Serializes as a line-oriented text
/// document framed by CheckpointStore — same discipline as campaign
/// snapshots, same newest-valid recovery.
struct ServiceState {
  /// Largest device count a state may hold (also caps ServiceConfig).
  static constexpr std::uint64_t kMaxDevices = std::uint64_t{1} << 20;

  std::uint64_t sequence = 0;  ///< mutations applied since genesis
  Volts margin{12e-3};
  std::vector<DeviceAging> devices;
  IdempotencyWindow idempotency;

  /// Fresh state: per-device aging priors drawn from `seed` (device i's
  /// DeltaVth uniform in [0, 0.9 * margin] on stream derive_seed(seed, i)).
  static ServiceState genesis(std::uint64_t device_count, Volts margin,
                              std::uint64_t seed);

  std::string serialize() const;
  /// The same document in consecutive pieces of a few KiB each, so a
  /// compacting snapshot streams to disk without being held whole.
  void serialize(const std::function<void(std::string_view)>& sink) const;
  /// Strict inverse of serialize(): every scalar key and every device line
  /// exactly once, the declared device count capped (by kMaxDevices and by
  /// the document's own size) before anything is allocated, finite values
  /// and in-range ids only.  Throws std::runtime_error naming the failing
  /// field and nothing else; never yields a partially-filled state.
  static ServiceState deserialize(std::string_view bytes);

  /// Apply one mutation (the record's device id must be in range): book
  /// its window, advance the sequence, remember the ack.  Returns the
  /// device's window count after it.
  std::uint64_t apply(const MutationRecord& record);

  const AppliedMutation* find_applied(std::uint64_t client_id,
                                      std::uint64_t request_id) const {
    return idempotency.find(client_id, request_id);
  }
  std::uint64_t total_windows() const;
};

/// Host-time operational tallies; everything here is timing- and
/// chaos-dependent, which is exactly why none of it appears in response
/// payloads.
struct ServiceStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< over max_connections
  std::uint64_t evictions = 0;             ///< I/O deadline expiries
  std::uint64_t frame_errors = 0;          ///< poisoned readers dropped
  std::uint64_t requests = 0;              ///< admitted to the queue
  std::uint64_t shed = 0;                  ///< load-shed with kOverloaded
  std::uint64_t responses = 0;
  std::uint64_t mutations = 0;             ///< newly applied
  std::uint64_t replays = 0;               ///< idempotent re-acks
  std::uint64_t too_old = 0;               ///< refused kTooOldToReplay
  std::uint64_t snapshots_saved = 0;
  std::uint64_t log_appends = 0;           ///< mutation records appended

  std::string render() const;
  /// Set one `prefix`-named counter per field (same integers as the
  /// struct, so report and metrics can never disagree).
  void publish(obs::Registry& registry,
               const std::string& prefix = "fleet.service.") const;
};

/// The resident daemon.  Single-threaded poll loop; concurrency comes
/// from multiplexing connections, not threads (fork-safe, like the
/// supervisor it fronts).
class Service {
 public:
  /// Log records between two compacting snapshots.
  static constexpr std::uint64_t kCompactEvery = 256;
  /// Snapshots retained (each with the log segments that follow it).
  static constexpr std::size_t kSnapshotsKept = 4;

  /// Loads the newest valid state snapshot from `state_dir` and replays
  /// the log after it (genesis when no snapshot verifies, then durably
  /// persists the genesis snapshot).  Throws
  /// std::runtime_error on an unusable state_dir or socket path,
  /// std::invalid_argument on nonsensical tunables.
  explicit Service(ServiceConfig config);

  /// Compute the response to one verified request frame, durably applying
  /// any mutation (write-ahead) before the acknowledgement is returned.
  /// Never throws on hostile payloads — they earn an ErrorResponse.
  /// Exposed for in-process tests; run() calls it per admitted request.
  Frame respond(const Frame& request);

  /// One tick's bounded-queue admission: the first `max_request_queue`
  /// requests are answered via respond(), the rest shed with a
  /// kOverloaded ErrorResponse.  Returns responses 1:1 with requests.
  std::vector<Frame> process_tick(const std::vector<Frame>& requests);

  /// Bind the socket and serve until SIGTERM/SIGINT, then drain: stop
  /// accepting, flush, persist a final snapshot, publish metrics, return.
  void run();

  const ServiceConfig& config() const { return config_; }
  const ServiceState& state() const { return state_; }
  const ServiceStats& stats() const { return stats_; }
  bool draining() const { return draining_; }

  /// Poll-loop liveness tallies behind the kHealthRequest scrape.
  struct Health {
    std::uint64_t poll_iterations = 0;
    std::uint64_t connections = 0;
    std::uint64_t connections_high_water = 0;
    std::uint64_t queue_depth_high_water = 0;
  };
  const Health& health() const { return health_; }

  /// Mutations applied but not yet durable in a snapshot or the log (0
  /// outside of a write-ahead window, since the log append precedes every
  /// ack).
  std::uint64_t snapshot_lag() const {
    return state_.sequence - last_durable_sequence_;
  }
  /// Log records appended since the last snapshot (< kCompactEvery).
  std::uint64_t log_records() const {
    return state_.sequence - segment_base_;
  }

  const obs::FlightRecorder& flight_recorder() const { return recorder_; }

  /// Mirror every volatile tally (service stats, protocol tallies, health)
  /// into `registry` — what the metrics scrape and the drain-time metrics
  /// dump both call, so the two channels can never disagree.
  void publish_volatile(obs::Registry& registry) const;

 private:
  Frame respond_margin(const Frame& request);
  Frame respond_margin_batch(const Frame& request);
  Frame respond_rejuvenation(const Frame& request);
  Frame respond_schedule_sleep(const Frame& request);
  Frame respond_status(const Frame& request);
  Frame respond_metrics(const Frame& request);
  Frame respond_profile(const Frame& request);
  Frame respond_health(const Frame& request);
  /// Compact: durably snapshot the whole state, prune old snapshots and
  /// segments, start the next log segment at the current sequence, and
  /// make the flight ring durable (msync).
  void save_state();
  /// Write-ahead one mutation record to the live segment (opened on first
  /// use), compacting once the segment holds kCompactEvery records.
  void append_record(const MutationRecord& record);
  /// Replay the log forward from the loaded snapshot: each segment that
  /// starts at the sequence reached, up to its first torn, corrupt or
  /// out-of-sequence record; segments that start anywhere else are stale
  /// and removed.
  void replay_log();
  /// Latency histogram for a request type (nullptr when uninstrumented).
  obs::Histogram* latency_histogram(MessageType type) const;

  ServiceConfig config_;
  CheckpointStore state_store_;
  bti::ClosedFormModel model_;
  ServiceState state_;
  ServiceStats stats_;
  Health health_;
  obs::FlightRecorder recorder_;
  std::uint64_t last_durable_sequence_ = 0;
  /// The live log segment: records after the snapshot at segment_base_,
  /// the first segment_bytes_ of its file verified.  Opened lazily.
  LogSegment segment_;
  std::uint64_t segment_base_ = 0;
  std::uint64_t segment_bytes_ = 0;
  /// State-health gauges (fleet.service.state.*).
  std::uint64_t snapshot_bytes_ = 0;
  std::uint64_t last_persist_ns_ = 0;
  /// Registered once at construction, indexed by the raw request type;
  /// the request path only ever dereferences (lock-free).
  std::array<obs::Histogram*, 21> latency_{};
  obs::Histogram* queue_wait_ = nullptr;
  bool draining_ = false;
};

}  // namespace ash::fleet
