/// Flight recorder: ring semantics, the file-backed mapping, and
/// crash-tolerant loading of ring images.
///
/// The contract under test mirrors CheckpointStore's: an image left by a
/// dying process may be torn or corrupt anywhere, and load() must return
/// the valid events instead of failing — evidence beats completeness.  The
/// torn-tail sweep below cuts a real image at *every* byte offset and
/// requires each cut to either parse to a prefix of the full event list or
/// (only while the magic line itself is torn) reject loudly.

#include "ash/obs/flight_recorder.h"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "ash/util/atomic_file.h"
#include "ash/util/random.h"
#include "gtest/gtest.h"

namespace {

using ash::obs::FlightEventKind;
using ash::obs::FlightRecord;
using ash::obs::FlightRecorder;

// The recorder holds atomics, so it is neither movable nor copyable;
// tests populate one in place.
void record_busy_session(FlightRecorder& rec) {
  rec.record(FlightEventKind::kDaemonStart, 17);
  rec.record(FlightEventKind::kStateLoaded, 17);
  rec.record(FlightEventKind::kConnectionAccepted, 1);
  rec.record(FlightEventKind::kSnapshotSaved, 18, 4096);
  rec.record(FlightEventKind::kMutationApplied, 3, 18);
  rec.record(FlightEventKind::kFrameError, 4);
  rec.record(FlightEventKind::kDrainBegin);
  rec.record(FlightEventKind::kDrainEnd, 18);
}

TEST(FlightRecorder, DisabledRecorderIsInert) {
  FlightRecorder rec(0);
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.capacity(), 0u);
  rec.record(FlightEventKind::kDaemonStart, 1, 2);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.events().empty());
  // A disabled recorder still serializes a valid (empty) document.
  const auto loaded = FlightRecorder::load(rec.serialize());
  EXPECT_TRUE(loaded.empty());
}

TEST(FlightRecorder, RecordsCarrySequenceKindAndDetails) {
  FlightRecorder rec(16);
  record_busy_session(rec);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    if (i > 0) {
      EXPECT_GE(events[i].t_ms, events[i - 1].t_ms);
    }
  }
  EXPECT_EQ(events[0].kind, FlightEventKind::kDaemonStart);
  EXPECT_EQ(events[0].a, 17u);
  EXPECT_EQ(events[3].kind, FlightEventKind::kSnapshotSaved);
  EXPECT_EQ(events[3].a, 18u);
  EXPECT_EQ(events[3].b, 4096u);
  EXPECT_EQ(events[7].kind, FlightEventKind::kDrainEnd);
}

TEST(FlightRecorder, RingKeepsNewestEventsAndGlobalSequence) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record(FlightEventKind::kConnectionAccepted,
               static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  // The live ring and its wrapped image agree, oldest first.
  for (const auto& events :
       {rec.events(), FlightRecorder::load(rec.serialize())}) {
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].seq, 7 + i);  // oldest retained is seq 7
      EXPECT_EQ(events[i].a, 6 + i);
    }
  }
}

TEST(FlightRecorder, SerializeLoadRoundTrip) {
  FlightRecorder rec(16);
  record_busy_session(rec);
  const auto original = rec.events();
  const auto loaded = FlightRecorder::load(rec.serialize());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].seq, original[i].seq);
    EXPECT_EQ(loaded[i].kind, original[i].kind);
    EXPECT_EQ(loaded[i].a, original[i].a);
    EXPECT_EQ(loaded[i].b, original[i].b);
    // t_ms survives with the dump's fixed three-decimal precision.
    EXPECT_NEAR(loaded[i].t_ms, original[i].t_ms, 1e-3);
  }
}

TEST(FlightRecorder, TornDumpSweepYieldsValidPrefixAtEveryCut) {
  FlightRecorder rec(16);
  record_busy_session(rec);
  const std::string dump = rec.serialize();
  const auto full = FlightRecorder::load(dump);
  ASSERT_EQ(full.size(), 8u);
  constexpr std::string_view kHeader = "ash-flight-recorder v1";
  for (std::size_t cut = 0; cut <= dump.size(); ++cut) {
    const std::string torn = dump.substr(0, cut);
    std::vector<FlightRecord> events;
    try {
      events = FlightRecorder::load(torn);
    } catch (const std::runtime_error&) {
      // Only a torn *header* may reject; any torn body must degrade.
      EXPECT_LT(cut, kHeader.size() + 1) << "rejected at cut " << cut;
      continue;
    }
    ASSERT_LE(events.size(), full.size()) << "cut " << cut;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].seq, full[i].seq) << "cut " << cut;
      EXPECT_EQ(events[i].kind, full[i].kind) << "cut " << cut;
      EXPECT_EQ(events[i].a, full[i].a) << "cut " << cut;
      EXPECT_EQ(events[i].b, full[i].b) << "cut " << cut;
    }
  }
}

TEST(FlightRecorder, TrailingGarbageAfterValidEventsIsDropped) {
  FlightRecorder rec(16);
  record_busy_session(rec);
  std::string dump = rec.serialize();
  dump += "event not-a-number bogus line\n\x01\x02binary trash";
  const auto events = FlightRecorder::load(dump);
  EXPECT_EQ(events.size(), 8u);
}

TEST(FlightRecorder, LoadRejectsForeignDocuments) {
  EXPECT_THROW((void)FlightRecorder::load(""), std::runtime_error);
  EXPECT_THROW((void)FlightRecorder::load("snapshot v3\n"),
               std::runtime_error);
}

/// Overwrite word `w` of slot row `slot` (0-based, after the header row)
/// of a ring image with `v`, little-endian.
void poke(std::string& image, std::size_t slot, std::size_t w,
          std::uint64_t v) {
  const std::size_t at = (slot + 1) * FlightRecorder::kRowBytes + 8 * w;
  for (std::size_t i = 0; i < 8; ++i) {
    image[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

TEST(FlightRecorder, TornAndStaleSlotsAreDroppedAndTheRestLoad) {
  FlightRecorder rec(16);
  record_busy_session(rec);
  std::string image = rec.serialize();
  // Slot 2 caught between its invalidation and its publish (stamp 0);
  // slot 5 caught before its invalidation, still carrying the stamp of a
  // sequence the window has left behind.
  poke(image, 2, 0, 0);
  poke(image, 5, 0, rec.recorded() + 16);
  const auto full = rec.events();
  const auto events = FlightRecorder::load(image);
  ASSERT_EQ(events.size(), full.size() - 2);
  std::size_t j = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (i == 2 || i == 5) continue;
    EXPECT_EQ(events[j].seq, full[i].seq);
    EXPECT_EQ(events[j].kind, full[i].kind);
    EXPECT_EQ(events[j].a, full[i].a);
    EXPECT_EQ(events[j].b, full[i].b);
    ++j;
  }
}

TEST(FlightRecorder, FileBackedRingIsTheFile) {
  char tmpl[] = "/tmp/ash_flight_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/flight.txt";
  {
    FlightRecorder rec(16, path);
    record_busy_session(rec);
    // No flush between record() and the read: the file is the ring.
    const std::string image = ash::util::read_file(path);
    const auto original = rec.events();
    const auto loaded = FlightRecorder::load(image);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      EXPECT_EQ(loaded[i].seq, original[i].seq);
      EXPECT_EQ(loaded[i].kind, original[i].kind);
      EXPECT_EQ(loaded[i].t_ms, original[i].t_ms);
    }
    EXPECT_EQ(image.size(), 17 * FlightRecorder::kRowBytes);
    EXPECT_TRUE(rec.sync());
  }
  // A new recorder over the same path starts a fresh ring.
  FlightRecorder again(16, path);
  again.record(FlightEventKind::kDaemonStart, 5);
  const auto events = FlightRecorder::load(ash::util::read_file(path));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kDaemonStart);
  const std::string cmd = "rm -rf '" + std::string(tmpl) + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

TEST(FlightRecorder, UnwritablePathThrowsAtConstruction) {
  EXPECT_THROW(FlightRecorder(4, "/nonexistent-dir/flight.txt"),
               std::system_error);
  // Disabled recorders never touch the path.
  EXPECT_NO_THROW(FlightRecorder(0, "/nonexistent-dir/flight.txt"));
}

TEST(FlightRecorder, MutatedImagesOnlyEverThrowRuntimeError) {
  FlightRecorder rec(8);
  for (int i = 0; i < 12; ++i) {
    rec.record(static_cast<FlightEventKind>(i % 14),
               static_cast<std::uint64_t>(i), 1000u + i);
  }
  const std::string image = rec.serialize();
  std::uint64_t state = 0xF17E;
  for (int round = 0; round < 4000; ++round) {
    std::string bytes = image;
    const std::uint64_t flips = 1 + ash::splitmix64(state) % 4;
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t at =
          static_cast<std::size_t>(ash::splitmix64(state) % bytes.size());
      bytes[at] = static_cast<char>(
          static_cast<unsigned char>(bytes[at]) ^
          static_cast<unsigned char>(1u << (ash::splitmix64(state) % 8)));
    }
    if (ash::splitmix64(state) % 2 == 0) {
      bytes.resize(
          static_cast<std::size_t>(ash::splitmix64(state) % bytes.size()));
    }
    try {
      const auto events = FlightRecorder::load(bytes);
      EXPECT_LE(events.size(), rec.capacity()) << "round " << round;
      for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LT(events[i - 1].seq, events[i].seq) << "round " << round;
      }
    } catch (const std::runtime_error&) {
      // The one allowed failure: the magic line is damaged or torn.
      EXPECT_TRUE(bytes.size() < 23 || bytes.compare(0, 23, image, 0, 23) != 0)
          << "round " << round;
    }
  }
}

TEST(FlightRecorder, RenderNamesEveryEvent) {
  FlightRecorder rec(16);
  record_busy_session(rec);
  const std::string table = FlightRecorder::render(rec.events());
  EXPECT_NE(table.find("daemon-start"), std::string::npos);
  EXPECT_NE(table.find("snapshot-saved"), std::string::npos);
  EXPECT_NE(table.find("drain-end"), std::string::npos);
}

TEST(FlightRecorder, EventKindNamesRoundTrip) {
  const int count = static_cast<int>(FlightEventKind::kCount);
  for (int i = 0; i < count; ++i) {
    const auto kind = static_cast<FlightEventKind>(i);
    EXPECT_EQ(ash::obs::parse_flight_event(ash::obs::to_string(kind)), kind);
  }
  EXPECT_EQ(ash::obs::parse_flight_event("no-such-event"),
            FlightEventKind::kCount);
}

}  // namespace
