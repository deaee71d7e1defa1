#pragma once

/// \file flight_recorder.h
/// Crash-safe flight recorder: a fixed-size lock-free ring of structured
/// events that survives the death of its process.
///
/// Metrics answer "how much"; traces answer "where did the time go"; the
/// flight recorder answers the post-mortem question — *what was the daemon
/// doing right before it died?*  A SIGKILLed or wedged `ash_fleetd` leaves
/// no stack trace and no drain-time metrics dump, so the recorder keeps
/// the last `capacity` structured events (state transitions, evictions,
/// shed requests, framing rejections, snapshot writes) in a ring that
/// *is* the file: the ring lives in a `MAP_SHARED` mapping of the dump
/// path, so every record() lands in the page cache, which outlives a
/// SIGKILL, without a syscall.  sync() makes it power-loss durable.
///
/// Cost model, mirroring ScopedKernelTimer: a recorder constructed with
/// capacity 0 is *disabled* — nothing is mapped and `record()` is one
/// branch, no clock read, no store (enforced by tests/obs/overhead_test.cpp).
/// An enabled record() is a relaxed fetch_add to claim a slot plus
/// `std::atomic_ref` stores — lock-free and async-signal-safe, so a
/// fatal-signal handler may record.
///
/// The image (file and serialize() alike) is binary, 8-byte little-endian
/// words, 40 bytes per row:
///
///     header  "ash-flight-recorder v2\n" (23 bytes), one 0 pad byte,
///             capacity, recorded (total events ever claimed)
///     slot    stamp, t_ms (IEEE-754 bits), kind, a, b   (x capacity)
///
/// A slot is written stamp 0, fill, stamp seq, so a slot caught mid-write
/// by a crash or a reader carries stamp 0 or a stale stamp outside the
/// window (recorded - capacity, recorded] and is dropped.  `load()`
/// tolerates torn and corrupt images the way `CheckpointStore` tolerates
/// torn snapshots: once the magic line is complete it never throws.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ash::obs {

/// Event vocabulary of the fleet daemon's flight recorder.  Keep
/// `to_string` / `parse_flight_event` in sync when extending.
enum class FlightEventKind : std::uint32_t {
  kDaemonStart = 0,      ///< service constructed (a = resumed sequence)
  kStateGenesis,         ///< no snapshot verified; fresh genesis state
  kStateLoaded,          ///< resumed from a durable snapshot and its log
                         ///< (a = sequence, b = log records replayed past
                         ///< the last snapshot)
  kSnapshotSaved,        ///< durable state written (a = sequence, b = bytes)
  kConnectionAccepted,   ///< a = live connection count after accept
  kConnectionRejected,   ///< over the connection cap
  kEviction,             ///< slow-loris I/O deadline expiry
  kFrameError,           ///< framing violation poisoned a connection
  kRequestShed,          ///< bounded queue overflow (a = request id)
  kMutationApplied,      ///< schedule-sleep applied (a = device, b = seq)
  kMutationReplayed,     ///< idempotent re-ack (a = client, b = request id)
  kDrainBegin,           ///< SIGTERM/SIGINT received, drain started
  kDrainEnd,             ///< drain finished; final snapshot durable
  kFatalSignal,          ///< fatal signal handler fired (a = signal number)
  kCount,                // sentinel
};

const char* to_string(FlightEventKind kind);
/// Parse a to_string name back; returns kCount for unknown names.
FlightEventKind parse_flight_event(std::string_view name);

/// One recorded event.  `t_ms` is milliseconds since the recorder was
/// constructed (host time: the recorder exists to explain real crashes).
struct FlightRecord {
  std::uint64_t seq = 0;  ///< 1-based global event number (never wraps)
  double t_ms = 0.0;
  FlightEventKind kind = FlightEventKind::kDaemonStart;
  std::uint64_t a = 0;  ///< event-specific detail (see FlightEventKind)
  std::uint64_t b = 0;
};

/// Fixed-capacity lock-free event ring.  Thread-safe for concurrent
/// record(); events() tolerates in-flight writers by re-checking each
/// slot's sequence stamp around the copy.
class FlightRecorder {
 public:
  /// Bytes of the header and of each slot in the image.
  static constexpr std::size_t kRowBytes = 40;

  /// capacity 0 disables the recorder entirely (record() = one branch,
  /// nothing mapped).  With an empty `path` the ring is anonymous memory;
  /// otherwise `path` is created or truncated, its blocks are reserved and
  /// it is mapped shared, so the file always holds the live ring.  Throws
  /// std::system_error when the file cannot be created, sized or mapped,
  /// std::invalid_argument when the image size would overflow.
  explicit FlightRecorder(std::size_t capacity = 0,
                          const std::string& path = {});
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return capacity_ != 0; }
  std::size_t capacity() const { return capacity_; }

  void record(FlightEventKind kind, std::uint64_t a = 0, std::uint64_t b = 0);

  /// Total events ever recorded (>= events().size(); old ones wrapped).
  std::uint64_t recorded() const;

  /// The retained events, oldest first.
  std::vector<FlightRecord> events() const;

  /// The ring image, slots rotated oldest first (torn slots stamped 0).
  std::string serialize() const;

  /// Make a file-backed ring durable: one msync(MS_SYNC), plus an fsync
  /// of the file's directory the first time.  True when it succeeded or
  /// there is no file to flush.
  bool sync();

  /// Parse an image: keeps each slot whose stamp lies in the header's
  /// window and whose kind is known, sorted by sequence (one per
  /// sequence); a torn header yields no events, bytes past `capacity`
  /// slots are ignored.  Throws std::runtime_error only when `bytes` does
  /// not start with the complete magic line.
  static std::vector<FlightRecord> load(std::string_view bytes);

  /// Human-readable table of a loaded (or live) event list.
  static std::string render(const std::vector<FlightRecord>& events);

 private:
  double elapsed_ms() const;
  /// Copy slot `index` into `out`; returns its stamp, or 0 when a writer
  /// raced the copy.
  std::uint64_t read_slot(std::size_t index, FlightRecord& out) const;

  /// The mapping: one header row, then `capacity_` slot rows, each five
  /// 8-byte words (null when disabled).
  std::uint64_t* words_ = nullptr;
  std::size_t capacity_ = 0;
  bool file_backed_ = false;
  /// Directory of a file-backed ring until its first successful sync().
  std::string unsynced_dir_;
  std::uint64_t epoch_ns_ = 0;
};

}  // namespace ash::obs
