#pragma once

/// \file checkpoint_store.h
/// Durable, corruption-detecting persistence for campaign checkpoints.
///
/// `tb::CampaignCheckpoint` serializes as a line-oriented text document —
/// perfect for diffing, useless for crash safety: a torn write leaves a
/// prefix that still *looks* like a checkpoint up to the tear.  The fleet
/// store wraps that text payload in a versioned binary frame,
///
///   offset  size  field
///        0     8  magic "ASHFLT1\n"
///        8     4  format version (1, little-endian u32)
///       12     4  shard id (u32)
///       16     8  sequence number (u64; the campaign's next_phase)
///       24     8  payload size in bytes (u64)
///       32     4  CRC-32 of the payload
///       36     4  CRC-32 of bytes 0..35 (header self-check)
///       40     …  payload (the CampaignCheckpoint text document)
///
/// and persists it with `util::atomic_write_file` (write temp → fsync →
/// rename → fsync dir), so a snapshot file is either entirely present or
/// entirely absent.  Defense in depth: even if the filesystem breaks that
/// promise (or an adversary edits the file), `decode_snapshot` detects
/// truncation, trailing garbage, header tampering and payload bit-flips,
/// and `load_newest_valid` falls back to the newest snapshot that still
/// verifies — recovery never trusts unverified bytes.
///
/// One directory holds many shards' snapshots; files are named
/// `shard-<id>.seq-<sequence>.ckpt` so a directory listing is also a
/// recovery map.  Sequence numbers are monotone per shard (the campaign
/// phase index), which makes "newest" well-defined without trusting
/// mtimes.
///
/// A shard may also keep append-only **log segments** next to its
/// snapshots, named `shard-<id>.seq-<base>.log`: the records appended
/// after the snapshot at sequence `base`.  The store only moves bytes —
/// one `write` + `fdatasync` per append on a descriptor kept open — and
/// the owner frames and verifies its records (the fleet service's
/// mutation log, see service.h).  `prune` keeps every segment a retained
/// snapshot may still need to replay forward.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ash::fleet {

/// Frame format version written by this build.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Thrown by decode_snapshot when a frame fails verification; the message
/// names the failing check (magic, version, truncation, CRC, ...).
class CorruptSnapshot : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Encode one snapshot frame (header + CRCs + payload).
std::string frame_snapshot(int shard_id, std::uint64_t sequence,
                           std::string_view payload);

/// A verified frame.
struct DecodedSnapshot {
  int shard_id = 0;
  std::uint64_t sequence = 0;
  std::string payload;
};

/// Verify and unwrap a frame.  Throws CorruptSnapshot on any violation:
/// short header, bad magic/version, header CRC mismatch, payload length
/// mismatch (truncation or trailing garbage) or payload CRC mismatch.
DecodedSnapshot decode_snapshot(std::string_view bytes);

/// A snapshot recovered from disk, plus how many invalid files were
/// skipped to reach it (surfaced into the supervision stats).
struct LoadedSnapshot {
  std::uint64_t sequence = 0;
  std::string payload;
  int corrupt_skipped = 0;
};

/// A log segment found on disk.
struct SegmentFile {
  std::uint64_t base = 0;  ///< sequence of the snapshot it follows
  std::string path;
};

/// Append handle on one open log segment; closes its descriptor when
/// destroyed.  Obtained from CheckpointStore::open_segment.
class LogSegment {
 public:
  LogSegment() = default;
  ~LogSegment();
  LogSegment(LogSegment&& other) noexcept;
  LogSegment& operator=(LogSegment&& other) noexcept;
  LogSegment(const LogSegment&) = delete;
  LogSegment& operator=(const LogSegment&) = delete;

  bool is_open() const { return fd_ >= 0; }

  /// Durably append `record`: one write, then fdatasync, both before the
  /// call returns.  Throws std::system_error on any I/O failure (the
  /// segment may then end in a torn record, which readers cut off).
  void append(std::string_view record);

 private:
  friend class CheckpointStore;
  LogSegment(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  void close();

  int fd_ = -1;
  std::string path_;
};

/// Directory of framed snapshots, many shards per directory.
class CheckpointStore {
 public:
  /// The directory must exist and be writable; throws std::runtime_error
  /// otherwise (checked up front so a typo'd path fails in milliseconds,
  /// not after hours of campaign).
  explicit CheckpointStore(std::string directory);

  const std::string& directory() const { return directory_; }

  /// Durably persist one snapshot; returns the file path written.
  std::string save(int shard_id, std::uint64_t sequence,
                   std::string_view payload) const;
  /// The same file from a payload emitted in pieces — `payload(sink)`
  /// calls `sink` with consecutive pieces — so a large payload is never
  /// held in memory whole (the frame header is written last).
  using PayloadSink = std::function<void(std::string_view)>;
  std::string save(int shard_id, std::uint64_t sequence,
                   const std::function<void(const PayloadSink&)>& payload) const;

  /// Newest snapshot of the shard that passes verification, scanning
  /// sequence numbers downward and skipping corrupt/truncated files.
  /// nullopt when no file verifies.
  std::optional<LoadedSnapshot> load_newest_valid(int shard_id) const;

  /// Snapshot file paths of one shard, ascending by sequence (whether or
  /// not they verify).
  std::vector<std::string> shard_files(int shard_id) const;

  /// Delete all but the newest `keep` snapshot files of the shard
  /// (retention for long missions; validity is not consulted), and every
  /// log segment older than the oldest snapshot kept.
  void prune(int shard_id, std::size_t keep) const;

  /// Log segments of one shard, ascending by base sequence.
  std::vector<SegmentFile> segment_files(int shard_id) const;

  /// Open the shard's segment `base` for appending, creating it when
  /// absent and cutting it to its first `valid_bytes` bytes (0 starts it
  /// empty).  The file's name and length are durable when this returns.
  /// Throws std::system_error on I/O failure.
  LogSegment open_segment(int shard_id, std::uint64_t base,
                          std::uint64_t valid_bytes) const;

  /// Durably delete one segment file (name gone after a directory fsync).
  void remove_segment(const SegmentFile& segment) const;

  /// Canonical file name for (shard, sequence).
  static std::string file_name(int shard_id, std::uint64_t sequence);
  /// Canonical log segment name for (shard, base sequence).
  static std::string segment_name(int shard_id, std::uint64_t base);

 private:
  /// Files of one shard ending in `suffix`, keyed by parsed sequence.
  std::map<std::uint64_t, std::string> list(int shard_id,
                                            std::string_view suffix) const;

  std::string directory_;
};

}  // namespace ash::fleet
