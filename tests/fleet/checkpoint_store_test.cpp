#include "ash/fleet/checkpoint_store.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/util/atomic_file.h"
#include "ash/util/crc32.h"

namespace ash::fleet {
namespace {

/// mkdtemp fixture: each test gets a private directory.
class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_ckpt_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  std::string dir_;
};

/// A payload with embedded NULs, newlines and high bytes — framing must be
/// 8-bit clean.
std::string binary_payload() {
  std::string p = "campaign checkpoint v1\n";
  p.push_back('\0');
  p += "\xff\xfe line2\n";
  p.push_back('\0');
  return p;
}

TEST(SnapshotFrame, RoundTripIsBitExact) {
  const std::string payload = binary_payload();
  const std::string frame = frame_snapshot(7, 42, payload);
  const DecodedSnapshot snap = decode_snapshot(frame);
  EXPECT_EQ(snap.shard_id, 7);
  EXPECT_EQ(snap.sequence, 42u);
  EXPECT_EQ(snap.payload, payload);
}

TEST(SnapshotFrame, EmptyPayloadRoundTrips) {
  const std::string frame = frame_snapshot(0, 0, "");
  const DecodedSnapshot snap = decode_snapshot(frame);
  EXPECT_EQ(snap.payload, "");
}

TEST(SnapshotFrame, TruncationAtEveryByteBoundaryIsRejected) {
  // The torn-write acceptance sweep: a frame cut at ANY byte boundary —
  // mid-magic, mid-header, mid-payload — must be rejected, never decoded
  // into a partial snapshot.
  const std::string frame = frame_snapshot(3, 9, binary_payload());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(decode_snapshot(frame.substr(0, cut)), CorruptSnapshot)
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_NO_THROW(decode_snapshot(frame));
}

TEST(SnapshotFrame, EveryAppendedGarbageByteIsRejected) {
  const std::string frame = frame_snapshot(3, 9, binary_payload());
  EXPECT_THROW(decode_snapshot(frame + 'x'), CorruptSnapshot);
  EXPECT_THROW(decode_snapshot(frame + frame), CorruptSnapshot);
}

TEST(SnapshotFrame, EverySingleBitFlipIsRejected) {
  // CRC32 detects all single-bit errors; sweep every bit of header AND
  // payload.
  const std::string frame = frame_snapshot(1, 5, "short payload");
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string bad = frame;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
    EXPECT_THROW(decode_snapshot(bad), CorruptSnapshot)
        << "bit " << bit << " flip decoded";
  }
}

TEST(SnapshotFrame, ErrorMessagesNameTheFailure) {
  const std::string frame = frame_snapshot(1, 5, binary_payload());
  try {
    decode_snapshot(frame.substr(0, 10));
    FAIL() << "torn header decoded";
  } catch (const CorruptSnapshot& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
  try {
    decode_snapshot(frame.substr(0, frame.size() - 3));
    FAIL() << "torn payload decoded";
  } catch (const CorruptSnapshot& e) {
    EXPECT_NE(std::string(e.what()).find("torn write"), std::string::npos);
  }
  try {
    decode_snapshot(frame + "zz");
    FAIL() << "trailing garbage decoded";
  } catch (const CorruptSnapshot& e) {
    EXPECT_NE(std::string(e.what()).find("trailing garbage"),
              std::string::npos);
  }
  try {
    decode_snapshot("not a snapshot at all, but long enough to have a header");
    FAIL() << "foreign bytes decoded";
  } catch (const CorruptSnapshot& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(CheckpointStoreTest, SaveLoadRoundTrip) {
  const CheckpointStore store(dir_);
  const std::string payload = binary_payload();
  store.save(4, 17, payload);
  const auto loaded = store.load_newest_valid(4);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 17u);
  EXPECT_EQ(loaded->payload, payload);
  EXPECT_EQ(loaded->corrupt_skipped, 0);
}

TEST_F(CheckpointStoreTest, MissingDirectoryThrows) {
  EXPECT_THROW(CheckpointStore(dir_ + "/nope"), std::runtime_error);
}

TEST_F(CheckpointStoreTest, EmptyStoreLoadsNothing) {
  const CheckpointStore store(dir_);
  EXPECT_FALSE(store.load_newest_valid(0).has_value());
}

TEST_F(CheckpointStoreTest, NewestSequenceWins) {
  const CheckpointStore store(dir_);
  store.save(2, 1, "one");
  store.save(2, 3, "three");
  store.save(2, 2, "two");
  const auto loaded = store.load_newest_valid(2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 3u);
  EXPECT_EQ(loaded->payload, "three");
}

TEST_F(CheckpointStoreTest, CorruptNewestFallsBackToPreviousValid) {
  const CheckpointStore store(dir_);
  store.save(2, 1, "one");
  store.save(2, 2, "two");
  const std::string newest = store.save(2, 3, "three");
  // Tear the newest file mid-payload.
  const std::string bytes = util::read_file(newest);
  // Deliberately torn write; the store must reject it, not us.
  std::ofstream os(newest,  // ash-check: allow(unchecked-io): torn write is the test
                   std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 2));
  os.close();
  const auto loaded = store.load_newest_valid(2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 2u);
  EXPECT_EQ(loaded->payload, "two");
  EXPECT_EQ(loaded->corrupt_skipped, 1);
}

TEST_F(CheckpointStoreTest, AllCorruptLoadsNothingAndCountsSkips) {
  const CheckpointStore store(dir_);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const std::string path = store.save(9, seq, "payload");
    // Deliberate corruption; short writes here are the point.
    std::ofstream os(path,  // ash-check: allow(unchecked-io): torn write is the test
                    std::ios::binary | std::ios::trunc);
    os << "garbage";
  }
  EXPECT_FALSE(store.load_newest_valid(9).has_value());
}

TEST_F(CheckpointStoreTest, ShardsAreIsolated) {
  const CheckpointStore store(dir_);
  store.save(1, 5, "shard one");
  store.save(2, 9, "shard two");
  const auto one = store.load_newest_valid(1);
  const auto two = store.load_newest_valid(2);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(one->payload, "shard one");
  EXPECT_EQ(two->payload, "shard two");
  EXPECT_FALSE(store.load_newest_valid(3).has_value());
}

TEST_F(CheckpointStoreTest, MisfiledFrameIsSkipped) {
  // A frame that *verifies* but names another shard must not be loaded —
  // defends against a file copied/renamed into the wrong slot.
  const CheckpointStore store(dir_);
  util::atomic_write_file(dir_ + "/" + CheckpointStore::file_name(5, 2),
                          frame_snapshot(6, 2, "imposter"));
  store.save(5, 1, "legit");
  const auto loaded = store.load_newest_valid(5);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "legit");
  EXPECT_EQ(loaded->corrupt_skipped, 1);
}

TEST_F(CheckpointStoreTest, PruneKeepsNewest) {
  const CheckpointStore store(dir_);
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    store.save(0, seq, std::string("p").append(std::to_string(seq)));
  }
  store.prune(0, 2);
  const auto files = store.shard_files(0);
  ASSERT_EQ(files.size(), 2u);
  const auto loaded = store.load_newest_valid(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 5u);
}

TEST_F(CheckpointStoreTest, SaveIsAtomicNoTempFilesRemain) {
  const CheckpointStore store(dir_);
  store.save(0, 1, binary_payload());
  // Only the final name may exist — no .tmp litter from the write path.
  const auto files = store.shard_files(0);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].find(".ckpt"), std::string::npos);
}

TEST_F(CheckpointStoreTest, StreamedSaveWritesTheSameFrame) {
  const CheckpointStore store(dir_);
  const std::string payload = binary_payload() + std::string(40000, 'x');
  store.save(2, 9, [&](const CheckpointStore::PayloadSink& sink) {
    for (std::size_t at = 0; at < payload.size(); at += 4096) {
      sink(std::string_view(payload).substr(at, 4096));
    }
  });
  EXPECT_EQ(util::read_file(dir_ + "/" + CheckpointStore::file_name(2, 9)),
            frame_snapshot(2, 9, payload));
}

TEST_F(CheckpointStoreTest, FailedStreamedSaveLeavesNoFile) {
  const CheckpointStore store(dir_);
  EXPECT_THROW(store.save(0, 1,
                          [](const CheckpointStore::PayloadSink& sink) {
                            sink("half a snapshot");
                            throw std::runtime_error("producer failed");
                          }),
               std::runtime_error);
  EXPECT_TRUE(store.shard_files(0).empty());
  DIR* d = ::opendir(dir_.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    EXPECT_TRUE(name == "." || name == "..") << "debris: " << name;
  }
  ::closedir(d);
}

TEST_F(CheckpointStoreTest, LogSegmentsAppendReopenAndCut) {
  const CheckpointStore store(dir_);
  {
    LogSegment segment = store.open_segment(0, 5, 0);
    ASSERT_TRUE(segment.is_open());
    segment.append("abc");
    segment.append("def");
  }
  const std::vector<SegmentFile> segments = store.segment_files(0);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].base, 5u);
  EXPECT_EQ(util::read_file(segments[0].path), "abcdef");
  {
    // Reopening cuts a torn tail before anything is appended after it.
    LogSegment segment = store.open_segment(0, 5, 4);
    segment.append("XY");
  }
  EXPECT_EQ(util::read_file(segments[0].path), "abcdXY");
  // Segments are invisible to the snapshot scan and vice versa.
  EXPECT_TRUE(store.shard_files(0).empty());
  store.save(0, 5, "snap");
  EXPECT_EQ(store.segment_files(0).size(), 1u);
  store.remove_segment(segments[0]);
  EXPECT_TRUE(store.segment_files(0).empty());
}

TEST_F(CheckpointStoreTest, PruneKeepsTheSegmentsRetainedSnapshotsReplay) {
  const CheckpointStore store(dir_);
  for (std::uint64_t seq : {0, 10, 20, 30}) {
    store.save(0, seq, "state " + std::to_string(seq));
    store.open_segment(0, seq, 0).append("records");
  }
  store.prune(0, 2);
  ASSERT_EQ(store.shard_files(0).size(), 2u);
  const std::vector<SegmentFile> segments = store.segment_files(0);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].base, 20u);
  EXPECT_EQ(segments[1].base, 30u);
}

TEST(CheckpointStoreNames, SegmentNamesFollowTheSnapshotScheme) {
  EXPECT_EQ(CheckpointStore::segment_name(0, 256),
            "shard-00000.seq-0000000256.log");
}

TEST(CheckpointStoreNames, FileNamesSortBySequence) {
  EXPECT_EQ(CheckpointStore::file_name(3, 7),
            "shard-00003.seq-0000000007.ckpt");
  EXPECT_LT(CheckpointStore::file_name(0, 9),
            CheckpointStore::file_name(0, 10));
}

}  // namespace
}  // namespace ash::fleet
