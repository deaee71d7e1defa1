#include "ash/fleet/checkpoint_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <system_error>
#include <utility>

#include "ash/util/atomic_file.h"
#include "ash/util/crc32.h"
#include "ash/util/le_bytes.h"
#include "ash/util/syscall.h"

namespace ash::fleet {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'H', 'F', 'L', 'T', '1', '\n'};
constexpr std::size_t kHeaderSize = 40;

using util::get_u32;
using util::get_u64;
using util::put_u32;
using util::put_u64;

[[noreturn]] void fail_io(const std::string& what, const std::string& path) {
  throw std::system_error(errno, std::generic_category(), what + " " + path);
}

/// The frame header of a payload of `size` bytes with CRC-32 `crc`.
std::string frame_header(int shard_id, std::uint64_t sequence,
                         std::uint64_t size, std::uint32_t crc) {
  std::string out(kMagic, sizeof kMagic);
  put_u32(out, kSnapshotVersion);
  put_u32(out, static_cast<std::uint32_t>(shard_id));
  put_u64(out, sequence);
  put_u64(out, size);
  put_u32(out, crc);
  put_u32(out, util::crc32(out));  // header self-check over bytes 0..35
  return out;
}

}  // namespace

std::string frame_snapshot(int shard_id, std::uint64_t sequence,
                           std::string_view payload) {
  std::string out = frame_header(shard_id, sequence, payload.size(),
                                 util::crc32(payload));
  out.append(payload);
  return out;
}

DecodedSnapshot decode_snapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    throw CorruptSnapshot("snapshot truncated: " +
                          std::to_string(bytes.size()) +
                          " bytes, header needs " +
                          std::to_string(kHeaderSize));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw CorruptSnapshot("bad magic: not an ash-fleet snapshot");
  }
  const std::uint32_t version = get_u32(bytes, 8);
  if (version != kSnapshotVersion) {
    throw CorruptSnapshot("unsupported snapshot version " +
                          std::to_string(version));
  }
  const std::uint32_t header_crc = get_u32(bytes, 36);
  if (util::crc32(bytes.substr(0, 36)) != header_crc) {
    throw CorruptSnapshot("header CRC mismatch (header tampered or torn)");
  }
  const std::uint64_t payload_size = get_u64(bytes, 24);
  if (bytes.size() - kHeaderSize != payload_size) {
    throw CorruptSnapshot(
        "payload length mismatch: header says " +
        std::to_string(payload_size) + " bytes, file carries " +
        std::to_string(bytes.size() - kHeaderSize) +
        (bytes.size() - kHeaderSize < payload_size ? " (torn write)"
                                                   : " (trailing garbage)"));
  }
  const std::uint32_t payload_crc = get_u32(bytes, 32);
  if (util::crc32(bytes.substr(kHeaderSize)) != payload_crc) {
    throw CorruptSnapshot("payload CRC mismatch (bit rot or tampering)");
  }
  DecodedSnapshot out;
  out.shard_id = static_cast<int>(get_u32(bytes, 12));
  out.sequence = get_u64(bytes, 16);
  out.payload = std::string(bytes.substr(kHeaderSize));
  return out;
}

CheckpointStore::CheckpointStore(std::string directory)
    : directory_(std::move(directory)) {
  if (!util::writable_directory(directory_)) {
    throw std::runtime_error("checkpoint store: '" + directory_ +
                             "' is not a writable directory");
  }
}

std::string CheckpointStore::file_name(int shard_id, std::uint64_t sequence) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "shard-%05d.seq-%010" PRIu64 ".ckpt",
                shard_id, sequence);
  return buf;
}

std::string CheckpointStore::save(int shard_id, std::uint64_t sequence,
                                  std::string_view payload) const {
  const std::string path = directory_ + "/" + file_name(shard_id, sequence);
  util::atomic_write_file(path, frame_snapshot(shard_id, sequence, payload));
  return path;
}

std::string CheckpointStore::save(
    int shard_id, std::uint64_t sequence,
    const std::function<void(const PayloadSink&)>& payload) const {
  const std::string path = directory_ + "/" + file_name(shard_id, sequence);
  util::atomic_write_file(path, [&](int fd) {
    util::write_all(fd, std::string(kHeaderSize, '\0'), path);
    util::Crc32 crc;
    std::uint64_t size = 0;
    payload([&](std::string_view piece) {
      util::write_all(fd, piece, path);
      crc.update(piece);
      size += piece.size();
    });
    // The header needs the payload's size and CRC: patch it in last.
    if (::lseek(fd, 0, SEEK_SET) != 0) fail_io("cannot seek", path);
    util::write_all(fd, frame_header(shard_id, sequence, size, crc.value()),
                    path);
  });
  return path;
}

std::string CheckpointStore::segment_name(int shard_id, std::uint64_t base) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "shard-%05d.seq-%010" PRIu64 ".log",
                shard_id, base);
  return buf;
}

std::map<std::uint64_t, std::string> CheckpointStore::list(
    int shard_id, std::string_view suffix) const {
  // Collect by *parsed* sequence so ordering never depends on readdir
  // order; the zero-padded names sort the same way, but parsing is the
  // contract.
  std::map<std::uint64_t, std::string> by_seq;
  DIR* d = ::opendir(directory_.c_str());
  if (d == nullptr) {
    throw std::runtime_error("checkpoint store: cannot list '" + directory_ +
                             "'");
  }
  char want_prefix[32];
  std::snprintf(want_prefix, sizeof want_prefix, "shard-%05d.seq-", shard_id);
  const std::size_t prefix_len = std::strlen(want_prefix);
  while (dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    if (name.substr(0, prefix_len) != want_prefix) continue;
    if (name.size() < prefix_len + suffix.size() ||
        name.substr(name.size() - suffix.size()) != suffix) {
      continue;
    }
    const std::string digits(
        name.substr(prefix_len, name.size() - prefix_len - suffix.size()));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    by_seq[std::strtoull(digits.c_str(), nullptr, 10)] =
        directory_ + "/" + std::string(name);
  }
  ::closedir(d);
  return by_seq;
}

std::vector<std::string> CheckpointStore::shard_files(int shard_id) const {
  std::vector<std::string> out;
  for (auto& [seq, path] : list(shard_id, ".ckpt")) {
    out.push_back(std::move(path));
  }
  return out;
}

std::vector<SegmentFile> CheckpointStore::segment_files(int shard_id) const {
  std::vector<SegmentFile> out;
  for (auto& [base, path] : list(shard_id, ".log")) {
    out.push_back(SegmentFile{base, std::move(path)});
  }
  return out;
}

std::optional<LoadedSnapshot> CheckpointStore::load_newest_valid(
    int shard_id) const {
  const std::vector<std::string> files = shard_files(shard_id);
  LoadedSnapshot out;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::string bytes;
    try {
      bytes = util::read_file(*it);
    } catch (const std::system_error&) {
      out.corrupt_skipped++;  // unreadable counts as invalid
      continue;
    }
    try {
      DecodedSnapshot snap = decode_snapshot(bytes);
      if (snap.shard_id != shard_id) {
        out.corrupt_skipped++;  // frame verifies but names another shard
        continue;
      }
      out.sequence = snap.sequence;
      out.payload = std::move(snap.payload);
      return out;
    } catch (const CorruptSnapshot&) {
      out.corrupt_skipped++;
    }
  }
  return std::nullopt;
}

void CheckpointStore::prune(int shard_id, std::size_t keep) const {
  const std::map<std::uint64_t, std::string> snapshots =
      list(shard_id, ".ckpt");
  if (snapshots.empty()) return;
  std::size_t drop = snapshots.size() > keep ? snapshots.size() - keep : 0;
  // Segments are replayed forward from a snapshot at or below their base,
  // so the oldest retained snapshot still needs every segment from its
  // own sequence on.
  std::uint64_t oldest_kept = ~std::uint64_t{0};
  for (const auto& [seq, path] : snapshots) {
    if (drop == 0) {
      oldest_kept = seq;
      break;
    }
    ::unlink(path.c_str());
    --drop;
  }
  for (const auto& [base, path] : list(shard_id, ".log")) {
    if (base >= oldest_kept) break;
    ::unlink(path.c_str());
  }
}

LogSegment CheckpointStore::open_segment(int shard_id, std::uint64_t base,
                                         std::uint64_t valid_bytes) const {
  std::string path = directory_ + "/" + segment_name(shard_id, base);
  const int fd = util::retry_eintr([&] {
    return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  });
  if (fd < 0) fail_io("cannot open log segment", path);
  LogSegment segment(fd, path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) fail_io("cannot stat log segment", path);
  if (static_cast<std::uint64_t>(st.st_size) != valid_bytes) {
    // Cut a torn or stale tail before anything is appended after it.
    if (util::retry_eintr([&] {
          return ::ftruncate(fd, static_cast<off_t>(valid_bytes));
        }) != 0 ||
        util::retry_eintr([&] { return ::fdatasync(fd); }) != 0) {
      fail_io("cannot truncate log segment", path);
    }
  }
  // The segment's name survives a crash from here on.
  if (!util::sync_directory(directory_)) {
    fail_io("cannot fsync directory", directory_);
  }
  return segment;
}

void CheckpointStore::remove_segment(const SegmentFile& segment) const {
  ::unlink(segment.path.c_str());
  if (!util::sync_directory(directory_)) {
    fail_io("cannot fsync directory", directory_);
  }
}

LogSegment::~LogSegment() { close(); }

LogSegment::LogSegment(LogSegment&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

LogSegment& LogSegment::operator=(LogSegment&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

void LogSegment::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void LogSegment::append(std::string_view record) {
  util::write_all(fd_, record, path_);
  if (util::retry_eintr([&] { return ::fdatasync(fd_); }) != 0) {
    fail_io("cannot fdatasync log segment", path_);
  }
}

}  // namespace ash::fleet
