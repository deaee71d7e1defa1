#include "ash/fleet/protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <type_traits>
#include <variant>

#include "ash/obs/metrics.h"
#include "ash/util/crc32.h"
#include "ash/util/le_bytes.h"
#include "ash/util/table.h"

namespace ash::fleet {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'H', 'F', 'L', 'T', 'Q', '1'};

/// The single choke point for framing rejections: count the violation into
/// the process-global tallies, then throw.  Payload *document* errors
/// bypass this (they construct ProtocolError directly with kNone), so the
/// tallies count framing violations and nothing else.
[[noreturn]] void reject(ProtocolViolation violation, const std::string& what) {
  protocol_tallies().count(violation);
  throw ProtocolError(what, violation);
}

using util::get_u32;
using util::get_u64;
using util::put_u32;
using util::put_u64;

/// Earliest-offset validation of a (possibly partial) frame prefix.
/// Returns the total frame size once the header is complete and valid, 0
/// when more bytes are needed.  Throws ProtocolError at the first byte
/// that proves the input is not a frame.
std::uint64_t check_frame_prefix(std::string_view bytes,
                                 std::uint64_t max_payload) {
  const std::size_t magic_len = std::min(bytes.size(), sizeof kMagic);
  if (std::memcmp(bytes.data(), kMagic, magic_len) != 0) {
    reject(ProtocolViolation::kBadMagic, "bad magic: not an ash-fleet frame");
  }
  if (bytes.size() < 12) return 0;
  const std::uint32_t version = get_u32(bytes, 8);
  if (version != kProtocolVersion) {
    reject(ProtocolViolation::kBadVersion,
           "unsupported protocol version " + std::to_string(version));
  }
  if (bytes.size() < 32) return 0;
  const std::uint64_t payload_size = get_u64(bytes, 24);
  if (payload_size > max_payload) {
    reject(ProtocolViolation::kHostileLength,
           "declared payload of " + std::to_string(payload_size) +
               " bytes exceeds the " + std::to_string(max_payload) +
               "-byte cap (hostile length)");
  }
  if (bytes.size() < kFrameHeaderSize) return 0;
  const std::uint32_t header_crc = get_u32(bytes, 36);
  if (util::crc32(bytes.substr(0, 36)) != header_crc) {
    reject(ProtocolViolation::kHeaderCrc,
           "header CRC mismatch (tampered or torn header)");
  }
  return kFrameHeaderSize + payload_size;
}

/// Unwrap a frame whose header has already passed check_frame_prefix and
/// whose `total` bytes are all present.
Frame finish_frame(std::string_view bytes) {
  const std::uint32_t payload_crc = get_u32(bytes, 32);
  if (util::crc32(bytes.substr(kFrameHeaderSize)) != payload_crc) {
    reject(ProtocolViolation::kPayloadCrc,
           "payload CRC mismatch (bit rot or tampering)");
  }
  const std::uint32_t raw_type = get_u32(bytes, 12);
  if (!known_message_type(raw_type)) {
    reject(ProtocolViolation::kUnknownType,
           "unknown message type " + std::to_string(raw_type));
  }
  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.request_id = get_u64(bytes, 16);
  frame.payload = std::string(bytes.substr(kFrameHeaderSize));
  protocol_tallies().count_decoded();
  return frame;
}

// -------------------------------------------------------------------------
// Wire names.  Each enumerator's name is written once, in these tables.
// -------------------------------------------------------------------------

template <class Enum>
struct Name {
  Enum value;
  const char* name;
  /// MessageType only: the volatile scrape channel (13..18), kept out of
  /// replay and transcripts.  The margin batch after it is science again.
  bool scrape = false;
};

constexpr Name<MessageType> kTypeNames[] = {
    {MessageType::kPingRequest, "ping-request"},
    {MessageType::kPingResponse, "ping-response"},
    {MessageType::kMarginRequest, "margin-request"},
    {MessageType::kMarginResponse, "margin-response"},
    {MessageType::kRejuvenationRequest, "rejuvenation-request"},
    {MessageType::kRejuvenationResponse, "rejuvenation-response"},
    {MessageType::kScheduleSleepRequest, "schedule-sleep-request"},
    {MessageType::kScheduleSleepResponse, "schedule-sleep-response"},
    {MessageType::kStatusRequest, "status-request"},
    {MessageType::kStatusResponse, "status-response"},
    {MessageType::kErrorResponse, "error-response"},
    {MessageType::kMetricsRequest, "metrics-request", true},
    {MessageType::kMetricsResponse, "metrics-response", true},
    {MessageType::kProfileRequest, "profile-request", true},
    {MessageType::kProfileResponse, "profile-response", true},
    {MessageType::kHealthRequest, "health-request", true},
    {MessageType::kHealthResponse, "health-response", true},
    {MessageType::kMarginBatchRequest, "margin-batch-request"},
    {MessageType::kMarginBatchResponse, "margin-batch-response"},
};

constexpr Name<Status> kStatusNames[] = {
    {Status::kOk, "ok"},
    {Status::kOverloaded, "overloaded"},
    {Status::kBadRequest, "bad-request"},
    {Status::kUnknownDevice, "unknown-device"},
    {Status::kShuttingDown, "shutting-down"},
    {Status::kTooOldToReplay, "too-old-to-replay"},
};

/// A violation's `fleet.protocol.rejected.*` metric suffix is its name with
/// '-' spelled '_' (the [a-z0-9_.]+ metric-name discipline).
constexpr Name<ProtocolViolation> kViolationNames[] = {
    {ProtocolViolation::kNone, "none"},
    {ProtocolViolation::kBadMagic, "bad-magic"},
    {ProtocolViolation::kBadVersion, "bad-version"},
    {ProtocolViolation::kHostileLength, "hostile-length"},
    {ProtocolViolation::kHeaderCrc, "header-crc"},
    {ProtocolViolation::kPayloadCrc, "payload-crc"},
    {ProtocolViolation::kUnknownType, "unknown-type"},
    {ProtocolViolation::kTruncated, "truncated"},
    {ProtocolViolation::kTrailingGarbage, "trailing-garbage"},
};

template <class Enum, std::size_t N>
const Name<Enum>* lookup(const Name<Enum> (&names)[N], Enum value) {
  for (const Name<Enum>& n : names) {
    if (n.value == value) return &n;
  }
  return nullptr;  // e.g. message type 12, deliberately unassigned
}

template <class Enum, std::size_t N>
const char* name_of(const Name<Enum> (&names)[N], Enum value) {
  const Name<Enum>* n = lookup(names, value);
  return n != nullptr ? n->name : "unknown";
}

}  // namespace

const char* to_string(MessageType type) { return name_of(kTypeNames, type); }
const char* to_string(Status status) { return name_of(kStatusNames, status); }
const char* to_string(ProtocolViolation violation) {
  return name_of(kViolationNames, violation);
}

bool known_message_type(std::uint32_t raw) {
  return lookup(kTypeNames, static_cast<MessageType>(raw)) != nullptr;
}

bool volatile_message_type(MessageType type) {
  const Name<MessageType>* n = lookup(kTypeNames, type);
  return n != nullptr && n->scrape;
}

void ProtocolTallies::count(ProtocolViolation violation) {
  rejected_[static_cast<std::size_t>(violation)].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t ProtocolTallies::rejected(ProtocolViolation violation) const {
  return rejected_[static_cast<std::size_t>(violation)].load(
      std::memory_order_relaxed);
}

std::uint64_t ProtocolTallies::rejected_total() const {
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < rejected_.size(); ++i) {
    total += rejected_[i].load(std::memory_order_relaxed);
  }
  return total;
}

void ProtocolTallies::publish(obs::Registry& registry,
                              std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + "frames_decoded").set(decoded());
  for (const Name<ProtocolViolation>& v : kViolationNames) {
    if (v.value == ProtocolViolation::kNone) continue;
    std::string suffix = v.name;
    std::replace(suffix.begin(), suffix.end(), '-', '_');
    registry.counter(p + "rejected." + suffix).set(rejected(v.value));
  }
  registry.counter(p + "rejected.total").set(rejected_total());
}

void ProtocolTallies::reset() {
  decoded_.store(0, std::memory_order_relaxed);
  for (auto& r : rejected_) r.store(0, std::memory_order_relaxed);
}

ProtocolTallies& protocol_tallies() {
  static ProtocolTallies tallies;
  return tallies;
}


std::string frame_message(MessageType type, std::uint64_t request_id,
                          std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw ProtocolError("refusing to frame a " +
                        std::to_string(payload.size()) + "-byte payload");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kProtocolVersion);
  put_u32(out, static_cast<std::uint32_t>(type));
  put_u64(out, request_id);
  put_u64(out, payload.size());
  put_u32(out, util::crc32(payload));
  put_u32(out, util::crc32(out));  // header self-check over bytes 0..35
  out.append(payload);
  return out;
}

std::string frame_reply(const Frame& reply) {
  if (reply.payload.size() <= kMaxFramePayload) {
    return frame_message(reply.type, reply.request_id, reply.payload);
  }
  ErrorResponse err;
  err.status = Status::kBadRequest;
  err.message = std::string("the ") + to_string(reply.type) + " reply of " +
                std::to_string(reply.payload.size()) +
                " bytes exceeds the frame cap of " +
                std::to_string(kMaxFramePayload) + " bytes";
  return frame_message(MessageType::kErrorResponse, reply.request_id,
                       err.encode());
}

Frame decode_frame(std::string_view bytes, std::uint64_t max_payload) {
  const std::uint64_t total = check_frame_prefix(bytes, max_payload);
  if (total == 0) {
    reject(ProtocolViolation::kTruncated,
           "frame truncated: " + std::to_string(bytes.size()) +
               " bytes, header needs " + std::to_string(kFrameHeaderSize));
  }
  if (bytes.size() < total) {
    reject(ProtocolViolation::kTruncated,
           "frame truncated: header declares " + std::to_string(total) +
               " bytes, got " + std::to_string(bytes.size()) +
               " (torn write)");
  }
  if (bytes.size() > total) {
    reject(ProtocolViolation::kTrailingGarbage,
           "trailing garbage: " + std::to_string(bytes.size() - total) +
               " bytes beyond the declared frame");
  }
  return finish_frame(bytes);
}

FrameReader::FrameReader(std::uint64_t max_payload)
    : max_payload_(max_payload) {}

void FrameReader::check_prefix() {
  // Throws at the earliest offset that proves the buffer invalid; a valid
  // prefix (complete or not) passes silently.
  (void)check_frame_prefix(buffer_, max_payload_);
}

void FrameReader::feed(std::string_view bytes) {
  if (poisoned_) {
    throw ProtocolError("frame reader poisoned by an earlier violation");
  }
  buffer_.append(bytes);
  try {
    check_prefix();
  } catch (const ProtocolError&) {
    poisoned_ = true;
    throw;
  }
}

std::optional<Frame> FrameReader::next() {
  if (poisoned_) {
    throw ProtocolError("frame reader poisoned by an earlier violation");
  }
  try {
    const std::uint64_t total = check_frame_prefix(buffer_, max_payload_);
    if (total == 0 || buffer_.size() < total) return std::nullopt;
    Frame frame = finish_frame(std::string_view(buffer_).substr(0, total));
    buffer_.erase(0, total);
    return frame;
  } catch (const ProtocolError&) {
    poisoned_ = true;
    throw;
  }
}

// -------------------------------------------------------------------------
// Payload documents.  Each message lists its fields once, in a table of
// (wire key, member, value kind); one encoder and one forward-only parser
// walk that table, so the two directions cannot drift apart.  A document is
// the table's `key value` lines in table order: a missing, repeated,
// reordered, unknown or trailing line is rejected, as is any value outside
// its kind.  Hostile payloads with a valid CRC (an attacker can compute
// CRCs) die here, field by field.
// -------------------------------------------------------------------------

namespace {

/// Closed range a numeric field must lie in.
struct Bounds {
  double lo;
  double hi;
};
constexpr Bounds kFinite{-std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::max()};
/// Durations are non-negative: hostile negative horizons are rejected.
constexpr Bounds kDuration{0.0, 1e18};
constexpr Bounds kDuty{0.0, 1.0};
constexpr Bounds kVdd{-5.0, 5.0};
constexpr Bounds kTemp{-273.15, 300.0};

/// The scalar value kinds, one per member type: u64 (decimal digits), bool
/// (0/1), int (an integral number within bounds), double or strong unit
/// (finite, within bounds, %.17g), Status (its name) and text (the rest of
/// the line, '-' standing for the empty string).  `Blocks` adds the
/// multi-line kinds a message, but not a row, may hold.
template <class T, class... Blocks>
using Kinds = std::variant<std::uint64_t T::*, bool T::*, int T::*,
                           double T::*, Volts T::*, Celsius T::*,
                           Seconds T::*, Status T::*, std::string T::*,
                           Blocks...>;

template <class T, class Member>
struct Entry {
  std::string_view key;
  Member member;
  Bounds bounds = kFinite;
};

/// Counted rows: `<key> <count>` (count <= cap), then `count` lines of
/// `<row_key>` and the row's columns (its kFields), space-separated; a bare
/// id is its own single column.
template <class T, class Row>
struct Rows {
  std::vector<Row> T::*member;
  std::string_view row_key;
  std::uint64_t cap;
};

/// Length-prefixed block: `<key> <size>`, then exactly `size` raw bytes
/// (metric lines use '=' and blank lines, outside the `key value` grammar).
template <class T>
struct Bytes {
  std::string T::*member;
};

template <class T>
using Field = Entry<T, Kinds<T, Bytes<T>, Rows<T, std::uint64_t>,
                             Rows<T, MarginBatchRow>, Rows<T, ProfileEntry>>>;
/// A row column; its key names it in error messages only.
template <class Row>
using Column = Entry<Row, Kinds<Row>>;

/// The field table of message T (of row T: its columns).  The primary
/// table is empty: ping, status, profile and health requests and the ping
/// response accept only the empty document.
template <class T>
constexpr std::array<Field<T>, 0> kFields{};

/// %.17g: the shortest printf format that round-trips every finite double
/// bit-exactly — transcript comparisons are byte comparisons because of it.
std::string fmt_double(double v) { return strformat("%.17g", v); }

/// At most 40 bytes of one line of hostile input, quoted: the error reply
/// must stay far below the frame cap however long the offending input was,
/// and its message must stay one line of its own document.
std::string quote(std::string_view text) {
  constexpr std::size_t kQuoteBytes = 40;
  const std::string_view head =
      text.substr(0, std::min(text.find('\n'), kQuoteBytes));
  return "'" + std::string(head) + (head.size() < text.size() ? "...'" : "'");
}

[[noreturn]] void bad_field(std::string_view key, const std::string& what) {
  throw ProtocolError("field '" + std::string(key) + "' " + what);
}

void put_value(std::string& out, std::uint64_t v) { out += std::to_string(v); }
void put_value(std::string& out, int v) { out += std::to_string(v); }
void put_value(std::string& out, bool v) { out += v ? '1' : '0'; }
void put_value(std::string& out, double v) { out += fmt_double(v); }
template <class Tag>
void put_value(std::string& out, units::detail::Quantity<Tag> v) {
  out += fmt_double(v.value());
}
void put_value(std::string& out, Status v) { out += to_string(v); }
/// A text value is the rest of its line and '-' spells the empty string,
/// so a newline inside it, or the value "-" itself, has no encoding that
/// parses back: refuse to emit it.
void put_value(std::string& out, const std::string& v) {
  if (v == "-" || v.find('\n') != std::string::npos) {
    throw ProtocolError("text value " + quote(v) +
                        " has no encoding (a newline, or a lone '-')");
  }
  out += v.empty() ? std::string_view("-") : std::string_view(v);
}

void get_value(std::string_view v, std::string_view key, Bounds,
               std::uint64_t& out) {
  const char* end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc() || stop != end) {
    bad_field(key, "is not an unsigned 64-bit integer: " + quote(v));
  }
}

/// Finite numbers within bounds: raw doubles, strong units and ints (the
/// u64, bool, Status and text overloads are exact matches and win).
template <class V>
void get_value(std::string_view v, std::string_view key, Bounds bounds,
               V& out) {
  const std::string text(v);
  char* end = nullptr;
  const double raw = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(raw)) {
    bad_field(key, "is not a finite number: " + quote(v));
  }
  if (raw < bounds.lo || raw > bounds.hi) {
    bad_field(key, "= " + fmt_double(raw) + " outside [" +
                       fmt_double(bounds.lo) + ", " + fmt_double(bounds.hi) +
                       "]");
  }
  if constexpr (std::is_same_v<V, int>) {
    if (raw != std::floor(raw)) {
      bad_field(key, "is not an integer: " + quote(v));
    }
    out = static_cast<int>(raw);
  } else {
    out = V{raw};
  }
}

void get_value(std::string_view v, std::string_view key, Bounds, bool& out) {
  if (v != "0" && v != "1") bad_field(key, "is not 0/1: " + quote(v));
  out = v == "1";
}

void get_value(std::string_view v, std::string_view, Bounds, Status& out) {
  for (const Name<Status>& n : kStatusNames) {
    if (v == n.name) {
      out = n.value;
      return;
    }
  }
  throw ProtocolError("unknown status " + quote(v));
}

void get_value(std::string_view v, std::string_view, Bounds,
               std::string& out) {
  out = v == "-" ? std::string() : std::string(v);
}

/// Forward-only cursor: consume the next line of `rest`, which must read
/// `<key> <value>`, and return the value.
std::string_view next_value(std::string_view& rest, std::string_view key) {
  const std::size_t eol = rest.find('\n');
  const std::string_view line = rest.substr(0, eol);
  if (eol == std::string_view::npos || !line.starts_with(key) ||
      line.size() == key.size() || line[key.size()] != ' ') {
    throw ProtocolError("expected a '" + std::string(key) +
                        " <value>' line, got " + quote(line));
  }
  rest.remove_prefix(eol + 1);
  return line.substr(key.size() + 1);
}

template <class T, class V>
void put(std::string& out, const T& msg, V T::*member) {
  put_value(out, msg.*member);
  out += '\n';
}

template <class T>
void put(std::string& out, const T& msg, const Bytes<T>& bytes) {
  const std::string& text = msg.*bytes.member;
  out += std::to_string(text.size()) + '\n' + text;
}

template <class T, class Row>
void put(std::string& out, const T& msg, const Rows<T, Row>& rows) {
  put_value(out, std::uint64_t{(msg.*rows.member).size()});
  out += '\n';
  for (const Row& row : msg.*rows.member) {
    out += rows.row_key;
    if constexpr (std::is_class_v<Row>) {
      for (const Column<Row>& c : kFields<Row>) {
        out += ' ';
        const std::size_t start = out.size();
        std::visit([&](auto m) { put_value(out, row.*m); }, c.member);
        // Columns split at spaces; only the last one may hold any.
        if (&c != std::end(kFields<Row>) - 1 &&
            out.find(' ', start) != std::string::npos) {
          bad_field(c.key, "holds a space, which would split its row: " +
                               quote(std::string_view(out).substr(start)));
        }
      }
    } else {
      out += ' ';
      put_value(out, row);
    }
    out += '\n';
  }
}

template <class T, class V>
void get(std::string_view& rest, const Field<T>& f, T& msg, V T::*member) {
  get_value(next_value(rest, f.key), f.key, f.bounds, msg.*member);
}

template <class T>
void get(std::string_view& rest, const Field<T>& f, T& msg,
         const Bytes<T>& bytes) {
  std::uint64_t size = 0;
  get_value(next_value(rest, f.key), f.key, kFinite, size);
  if (rest.size() < size) bad_field(f.key, "block truncated");
  msg.*bytes.member = std::string(rest.substr(0, size));
  rest.remove_prefix(size);
}

template <class T, class Row>
void get(std::string_view& rest, const Field<T>& f, T& msg,
         const Rows<T, Row>& rows) {
  std::uint64_t count = 0;
  get_value(next_value(rest, f.key), f.key, kFinite, count);
  if (count > rows.cap) {
    bad_field(f.key, "declares a hostile " + std::to_string(count) +
                         " rows (cap " + std::to_string(rows.cap) + ")");
  }
  (msg.*rows.member).resize(count);
  for (Row& row : msg.*rows.member) {
    std::string_view line = next_value(rest, rows.row_key);
    if constexpr (std::is_class_v<Row>) {
      // Columns split at single spaces; the last one takes the rest.
      for (const Column<Row>& c : kFields<Row>) {
        const bool last = &c == std::end(kFields<Row>) - 1;
        const std::size_t end = last ? line.size() : line.find(' ');
        if (end == 0 || end == std::string_view::npos) {
          bad_field(c.key, "missing from row " + quote(line));
        }
        const std::string_view token = line.substr(0, end);
        line.remove_prefix(last ? end : end + 1);
        std::visit([&](auto m) { get_value(token, c.key, c.bounds, row.*m); },
                   c.member);
      }
    } else {
      get_value(line, rows.row_key, kFinite, row);
    }
  }
}

template <class T>
std::string encode_doc(const T& msg) {
  std::string out;
  for (const Field<T>& f : kFields<T>) {
    out.append(f.key) += ' ';
    std::visit([&](const auto& m) { put(out, msg, m); }, f.member);
  }
  return out;
}

template <class T>
T parse_doc(std::string_view payload) {
  T msg;
  for (const Field<T>& f : kFields<T>) {
    std::visit([&](const auto& m) { get(payload, f, msg, m); }, f.member);
  }
  if (!payload.empty()) {
    throw ProtocolError("trailing bytes after the payload document: " +
                        quote(payload));
  }
  return msg;
}

template <>
constexpr Field<MarginRequest> kFields<MarginRequest>[] = {
    {"device", &MarginRequest::device_id},
    {"duty", &MarginRequest::duty, kDuty},
    {"vdd_v", &MarginRequest::vdd, kVdd},
    {"temp_c", &MarginRequest::temp, kTemp},
    {"horizon_s", &MarginRequest::horizon, kDuration},
};

template <>
constexpr Field<MarginResponse> kFields<MarginResponse>[] = {
    {"status", &MarginResponse::status},
    {"crosses", &MarginResponse::crosses},
    {"time_to_margin_s", &MarginResponse::time_to_margin, kDuration},
    {"delta_vth_v", &MarginResponse::delta_vth},
    {"margin_v", &MarginResponse::margin},
};

template <>
constexpr Field<MarginBatchRequest> kFields<MarginBatchRequest>[] = {
    {"duty", &MarginBatchRequest::duty, kDuty},
    {"vdd_v", &MarginBatchRequest::vdd, kVdd},
    {"temp_c", &MarginBatchRequest::temp, kTemp},
    {"horizon_s", &MarginBatchRequest::horizon, kDuration},
    {"devices", Rows<MarginBatchRequest, std::uint64_t>{
                    &MarginBatchRequest::device_ids, "device",
                    kMaxMarginBatchDevices}},
};

template <>
constexpr Column<MarginBatchRow> kFields<MarginBatchRow>[] = {
    {"device", &MarginBatchRow::device_id},
    {"crosses", &MarginBatchRow::crosses},
    {"time_to_margin_s", &MarginBatchRow::time_to_margin, kDuration},
    {"delta_vth_v", &MarginBatchRow::delta_vth},
};

template <>
constexpr Field<MarginBatchResponse> kFields<MarginBatchResponse>[] = {
    {"status", &MarginBatchResponse::status},
    {"margin_v", &MarginBatchResponse::margin},
    {"rows", Rows<MarginBatchResponse, MarginBatchRow>{
                 &MarginBatchResponse::rows, "row", kMaxMarginBatchDevices}},
};

template <>
constexpr Field<RejuvenationRequest> kFields<RejuvenationRequest>[] = {
    {"epoch_s", &RejuvenationRequest::epoch, kDuration},
};

template <>
constexpr Field<RejuvenationResponse> kFields<RejuvenationResponse>[] = {
    {"status", &RejuvenationResponse::status},
    {"any", &RejuvenationResponse::any},
    {"shard", &RejuvenationResponse::shard_id, {-1.0, 1 << 20}},
    {"degradation", &RejuvenationResponse::degradation},
};

template <>
constexpr Field<ScheduleSleepRequest> kFields<ScheduleSleepRequest>[] = {
    {"client", &ScheduleSleepRequest::client_id},
    {"device", &ScheduleSleepRequest::device_id},
    {"start_s", &ScheduleSleepRequest::start, kDuration},
    {"duration_s", &ScheduleSleepRequest::duration, kDuration},
};

template <>
constexpr Field<ScheduleSleepResponse> kFields<ScheduleSleepResponse>[] = {
    {"status", &ScheduleSleepResponse::status},
    {"newly_applied", &ScheduleSleepResponse::newly_applied},
    {"windows", &ScheduleSleepResponse::windows},
};

template <>
constexpr Field<StatusResponse> kFields<StatusResponse>[] = {
    {"status", &StatusResponse::status},
    {"devices", &StatusResponse::devices},
    {"windows", &StatusResponse::windows},
    {"sequence", &StatusResponse::sequence},
    {"draining", &StatusResponse::draining},
};

template <>
constexpr Field<ErrorResponse> kFields<ErrorResponse>[] = {
    {"status", &ErrorResponse::status},
    {"message", &ErrorResponse::message},  // the rest of the line, spaces too
};

template <>
constexpr Field<MetricsRequest> kFields<MetricsRequest>[] = {
    {"prefix", &MetricsRequest::prefix},  // metric names never contain '-'
};

template <>
constexpr Field<MetricsResponse> kFields<MetricsResponse>[] = {
    {"status", &MetricsResponse::status},
    {"bytes", Bytes<MetricsResponse>{&MetricsResponse::text}},
};

/// Kernel names are dotted identifiers without spaces, so a row tokenizes
/// unambiguously.
template <>
constexpr Column<ProfileEntry> kFields<ProfileEntry>[] = {
    {"kernel", &ProfileEntry::kernel},
    {"calls", &ProfileEntry::calls},
    {"total_ns", &ProfileEntry::total_ns},
};

template <>
constexpr Field<ProfileResponse> kFields<ProfileResponse>[] = {
    {"status", &ProfileResponse::status},
    {"profiling", &ProfileResponse::profiling},
    {"kernels", Rows<ProfileResponse, ProfileEntry>{&ProfileResponse::kernels,
                                                    "kernel", 4096}},
};

template <>
constexpr Field<HealthResponse> kFields<HealthResponse>[] = {
    {"status", &HealthResponse::status},
    {"poll_iterations", &HealthResponse::poll_iterations},
    {"connections", &HealthResponse::connections},
    {"connections_high_water", &HealthResponse::connections_high_water},
    {"queue_depth_high_water", &HealthResponse::queue_depth_high_water},
    {"requests", &HealthResponse::requests},
    {"shed", &HealthResponse::shed},
    {"snapshot_lag", &HealthResponse::snapshot_lag},
    {"draining", &HealthResponse::draining},
};

}  // namespace

std::string PingRequest::encode() const { return encode_doc(*this); }
PingRequest PingRequest::parse(std::string_view payload) {
  return parse_doc<PingRequest>(payload);
}
std::string PingResponse::encode() const { return encode_doc(*this); }
PingResponse PingResponse::parse(std::string_view payload) {
  return parse_doc<PingResponse>(payload);
}
std::string MarginRequest::encode() const { return encode_doc(*this); }
MarginRequest MarginRequest::parse(std::string_view payload) {
  return parse_doc<MarginRequest>(payload);
}
std::string MarginResponse::encode() const { return encode_doc(*this); }
MarginResponse MarginResponse::parse(std::string_view payload) {
  return parse_doc<MarginResponse>(payload);
}
std::string MarginBatchRequest::encode() const { return encode_doc(*this); }
MarginBatchRequest MarginBatchRequest::parse(std::string_view payload) {
  return parse_doc<MarginBatchRequest>(payload);
}
std::string MarginBatchResponse::encode() const { return encode_doc(*this); }
MarginBatchResponse MarginBatchResponse::parse(std::string_view payload) {
  return parse_doc<MarginBatchResponse>(payload);
}
std::string RejuvenationRequest::encode() const { return encode_doc(*this); }
RejuvenationRequest RejuvenationRequest::parse(std::string_view payload) {
  return parse_doc<RejuvenationRequest>(payload);
}
std::string RejuvenationResponse::encode() const { return encode_doc(*this); }
RejuvenationResponse RejuvenationResponse::parse(std::string_view payload) {
  return parse_doc<RejuvenationResponse>(payload);
}
std::string ScheduleSleepRequest::encode() const { return encode_doc(*this); }
ScheduleSleepRequest ScheduleSleepRequest::parse(std::string_view payload) {
  return parse_doc<ScheduleSleepRequest>(payload);
}
std::string ScheduleSleepResponse::encode() const { return encode_doc(*this); }
ScheduleSleepResponse ScheduleSleepResponse::parse(std::string_view payload) {
  return parse_doc<ScheduleSleepResponse>(payload);
}
std::string StatusRequest::encode() const { return encode_doc(*this); }
StatusRequest StatusRequest::parse(std::string_view payload) {
  return parse_doc<StatusRequest>(payload);
}
std::string StatusResponse::encode() const { return encode_doc(*this); }
StatusResponse StatusResponse::parse(std::string_view payload) {
  return parse_doc<StatusResponse>(payload);
}
std::string ErrorResponse::encode() const { return encode_doc(*this); }
ErrorResponse ErrorResponse::parse(std::string_view payload) {
  return parse_doc<ErrorResponse>(payload);
}
std::string MetricsRequest::encode() const { return encode_doc(*this); }
MetricsRequest MetricsRequest::parse(std::string_view payload) {
  return parse_doc<MetricsRequest>(payload);
}
std::string MetricsResponse::encode() const { return encode_doc(*this); }
MetricsResponse MetricsResponse::parse(std::string_view payload) {
  return parse_doc<MetricsResponse>(payload);
}
std::string ProfileRequest::encode() const { return encode_doc(*this); }
ProfileRequest ProfileRequest::parse(std::string_view payload) {
  return parse_doc<ProfileRequest>(payload);
}
std::string ProfileResponse::encode() const { return encode_doc(*this); }
ProfileResponse ProfileResponse::parse(std::string_view payload) {
  return parse_doc<ProfileResponse>(payload);
}
std::string HealthRequest::encode() const { return encode_doc(*this); }
HealthRequest HealthRequest::parse(std::string_view payload) {
  return parse_doc<HealthRequest>(payload);
}
std::string HealthResponse::encode() const { return encode_doc(*this); }
HealthResponse HealthResponse::parse(std::string_view payload) {
  return parse_doc<HealthResponse>(payload);
}

}  // namespace ash::fleet
