#include "ash/obs/flight_recorder.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "ash/util/atomic_file.h"
#include "ash/util/le_bytes.h"
#include "ash/util/table.h"

namespace ash::obs {

namespace {

// The mapped words are the image's little-endian words, stored natively.
static_assert(std::endian::native == std::endian::little,
              "the flight-recorder image is little-endian");
static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free,
              "record() must stay lock-free and async-signal-safe");

constexpr char kMagic[] = "ash-flight-recorder v2\n";
constexpr std::size_t kMagicBytes = sizeof kMagic - 1;
constexpr std::size_t kRowWords = FlightRecorder::kRowBytes / 8;
static_assert(kMagicBytes < 3 * 8, "the magic line fits header words 0-2");
/// Header words after the magic line.
constexpr std::size_t kCapacityWord = 3;
constexpr std::size_t kRecordedWord = 4;
/// Word offsets inside a slot row.
constexpr std::size_t kStamp = 0;
constexpr std::size_t kTime = 1;
constexpr std::size_t kKind = 2;
constexpr std::size_t kA = 3;
constexpr std::size_t kB = 4;

std::atomic_ref<std::uint64_t> at(std::uint64_t& word) {
  return std::atomic_ref<std::uint64_t>(word);
}

std::uint64_t host_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void throw_errno(int err, const std::string& what) {
  throw std::system_error(err, std::generic_category(),
                          "flight recorder: " + what);
}

}  // namespace

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kDaemonStart: return "daemon-start";
    case FlightEventKind::kStateGenesis: return "state-genesis";
    case FlightEventKind::kStateLoaded: return "state-loaded";
    case FlightEventKind::kSnapshotSaved: return "snapshot-saved";
    case FlightEventKind::kConnectionAccepted: return "connection-accepted";
    case FlightEventKind::kConnectionRejected: return "connection-rejected";
    case FlightEventKind::kEviction: return "eviction";
    case FlightEventKind::kFrameError: return "frame-error";
    case FlightEventKind::kRequestShed: return "request-shed";
    case FlightEventKind::kMutationApplied: return "mutation-applied";
    case FlightEventKind::kMutationReplayed: return "mutation-replayed";
    case FlightEventKind::kDrainBegin: return "drain-begin";
    case FlightEventKind::kDrainEnd: return "drain-end";
    case FlightEventKind::kFatalSignal: return "fatal-signal";
    case FlightEventKind::kCount: break;
  }
  return "unknown";
}

FlightEventKind parse_flight_event(std::string_view name) {
  for (std::uint32_t k = 0;
       k < static_cast<std::uint32_t>(FlightEventKind::kCount); ++k) {
    const auto kind = static_cast<FlightEventKind>(k);
    if (name == to_string(kind)) return kind;
  }
  return FlightEventKind::kCount;
}

FlightRecorder::FlightRecorder(std::size_t capacity, const std::string& path)
    : capacity_(capacity),
      file_backed_(capacity != 0 && !path.empty()),
      epoch_ns_(host_now_ns()) {
  if (capacity_ == 0) return;  // disabled: nothing mapped
  if (capacity_ > SIZE_MAX / kRowBytes - 1) {
    throw std::invalid_argument("flight recorder: capacity too large");
  }
  const std::size_t bytes = (capacity_ + 1) * kRowBytes;
  int fd = -1;
  if (file_backed_) {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) throw_errno(errno, "open " + path);
    // Reserve the blocks now: a store into a hole of a full file system
    // would raise SIGBUS in the middle of a record().
    const int rc = ::posix_fallocate(fd, 0, static_cast<off_t>(bytes));
    if (rc != 0) {
      ::close(fd);
      throw_errno(rc, "reserve " + path);
    }
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     file_backed_ ? MAP_SHARED : MAP_PRIVATE | MAP_ANONYMOUS,
                     fd, 0);
  const int map_errno = errno;
  if (file_backed_) ::close(fd);  // the mapping keeps the file
  if (map == MAP_FAILED) throw_errno(map_errno, "mmap " + path);
  words_ = static_cast<std::uint64_t*>(map);  // zero-filled
  std::memcpy(words_, kMagic, kMagicBytes);
  words_[kCapacityWord] = capacity_;
  // The directory entry reaches the disk with the first sync(), which
  // keeps the directory fsync off a restart's path to its first request.
  if (file_backed_) unsynced_dir_ = util::dirname_of(path);
}

FlightRecorder::~FlightRecorder() {
  if (words_ != nullptr) ::munmap(words_, (capacity_ + 1) * kRowBytes);
}

double FlightRecorder::elapsed_ms() const {
  return static_cast<double>(host_now_ns() - epoch_ns_) * 1e-6;
}

std::uint64_t FlightRecorder::recorded() const {
  if (capacity_ == 0) return 0;
  return at(words_[kRecordedWord]).load(std::memory_order_relaxed);
}

void FlightRecorder::record(FlightEventKind kind, std::uint64_t a,
                            std::uint64_t b) {
  if (capacity_ == 0) return;  // disabled: one branch, no clock read
  const std::uint64_t seq =
      at(words_[kRecordedWord]).fetch_add(1, std::memory_order_relaxed) + 1;
  const auto index = static_cast<std::size_t>((seq - 1) % capacity_);
  std::uint64_t* slot = words_ + kRowWords * (1 + index);
  // Invalidate, fill, publish: a reader (or a crash) that races the fill
  // sees stamp 0 or a stale stamp and drops the slot instead of tearing.
  at(slot[kStamp]).store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  at(slot[kTime]).store(std::bit_cast<std::uint64_t>(elapsed_ms()),
                        std::memory_order_relaxed);
  at(slot[kKind]).store(static_cast<std::uint64_t>(kind),
                        std::memory_order_relaxed);
  at(slot[kA]).store(a, std::memory_order_relaxed);
  at(slot[kB]).store(b, std::memory_order_relaxed);
  at(slot[kStamp]).store(seq, std::memory_order_release);
}

std::uint64_t FlightRecorder::read_slot(std::size_t index,
                                        FlightRecord& out) const {
  std::uint64_t* slot = words_ + kRowWords * (1 + index);
  const std::uint64_t before = at(slot[kStamp]).load(std::memory_order_acquire);
  out.seq = before;
  out.t_ms = std::bit_cast<double>(
      at(slot[kTime]).load(std::memory_order_relaxed));
  out.kind = static_cast<FlightEventKind>(
      at(slot[kKind]).load(std::memory_order_relaxed));
  out.a = at(slot[kA]).load(std::memory_order_relaxed);
  out.b = at(slot[kB]).load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return at(slot[kStamp]).load(std::memory_order_relaxed) == before ? before
                                                                     : 0;
}

std::vector<FlightRecord> FlightRecorder::events() const {
  std::vector<FlightRecord> out;
  const std::uint64_t total = recorded();
  if (total == 0) return out;
  const std::uint64_t cap = capacity_;
  const std::uint64_t first = total > cap ? total - cap + 1 : 1;
  out.reserve(static_cast<std::size_t>(total - first + 1));
  for (std::uint64_t seq = first; seq <= total; ++seq) {
    FlightRecord rec;
    if (read_slot(static_cast<std::size_t>((seq - 1) % cap), rec) != seq) {
      continue;  // torn or overwritten
    }
    out.push_back(rec);
  }
  return out;
}

std::string FlightRecorder::serialize() const {
  const std::uint64_t total = recorded();
  std::string out(kMagic, kMagicBytes);
  out.push_back('\0');
  util::put_u64(out, capacity_);
  util::put_u64(out, total);
  // Rotate so the slot of the oldest retained sequence leads.
  const std::uint64_t start = total > capacity_ ? total % capacity_ : 0;
  for (std::size_t k = 0; k < capacity_; ++k) {
    FlightRecord rec;
    const std::uint64_t stamp =
        read_slot(static_cast<std::size_t>((start + k) % capacity_), rec);
    util::put_u64(out, stamp);
    util::put_u64(out, std::bit_cast<std::uint64_t>(rec.t_ms));
    util::put_u64(out, static_cast<std::uint64_t>(rec.kind));
    util::put_u64(out, rec.a);
    util::put_u64(out, rec.b);
  }
  return out;
}

bool FlightRecorder::sync() {
  if (!file_backed_) return true;
  if (::msync(words_, (capacity_ + 1) * kRowBytes, MS_SYNC) != 0) {
    return false;
  }
  if (!unsynced_dir_.empty()) {
    if (!util::sync_directory(unsynced_dir_)) return false;
    unsynced_dir_.clear();
  }
  return true;
}

std::vector<FlightRecord> FlightRecorder::load(std::string_view bytes) {
  if (bytes.substr(0, kMagicBytes) != std::string_view(kMagic, kMagicBytes)) {
    throw std::runtime_error(
        "flight recorder: not a ring image (missing 'ash-flight-recorder "
        "v2' magic line)");
  }
  std::vector<FlightRecord> out;
  if (bytes.size() < kRowBytes) return out;  // torn header
  const std::uint64_t capacity = util::get_u64(bytes, 8 * kCapacityWord);
  const std::uint64_t recorded = util::get_u64(bytes, 8 * kRecordedWord);
  // Live stamps lie in (oldest, recorded]: 0 marks a slot being filled, a
  // stale stamp one a crash caught before its invalidation.
  const std::uint64_t oldest = recorded > capacity ? recorded - capacity : 0;
  const std::uint64_t slots =
      std::min<std::uint64_t>(capacity, bytes.size() / kRowBytes - 1);
  for (std::uint64_t i = 0; i < slots; ++i) {
    const std::size_t row = static_cast<std::size_t>(i + 1) * kRowBytes;
    const auto word = [&](std::size_t w) {
      return util::get_u64(bytes, row + 8 * w);
    };
    const std::uint64_t stamp = word(kStamp);
    const std::uint64_t kind = word(kKind);
    if (stamp <= oldest || stamp > recorded ||
        kind >= static_cast<std::uint64_t>(FlightEventKind::kCount)) {
      continue;
    }
    out.push_back(FlightRecord{stamp, std::bit_cast<double>(word(kTime)),
                               static_cast<FlightEventKind>(kind), word(kA),
                               word(kB)});
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& x, const FlightRecord& y) {
              return x.seq < y.seq;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const FlightRecord& x, const FlightRecord& y) {
                          return x.seq == y.seq;
                        }),
            out.end());
  return out;
}

std::string FlightRecorder::render(const std::vector<FlightRecord>& events) {
  std::string out = strformat("flight recorder: %zu event(s)\n",
                              events.size());
  if (events.empty()) return out;
  out += "     seq        t_ms  event                            a"
         "            b\n";
  for (const FlightRecord& e : events) {
    out += strformat("%8llu  %10.3f  %-22s %12llu %12llu\n",
                     static_cast<unsigned long long>(e.seq), e.t_ms,
                     to_string(e.kind),
                     static_cast<unsigned long long>(e.a),
                     static_cast<unsigned long long>(e.b));
  }
  return out;
}

}  // namespace ash::obs
