/// Crash recovery and bounded idempotency of the fleet service's durable
/// state (`ctest -L faults`):
///
///   * the live log segment truncated at every byte of its last record, or
///     with any one bit of that record flipped, restarts into exactly the
///     acknowledged prefix — never a throw, never a double booking;
///   * a corrupt newest snapshot falls back to the older one and replays
///     its log segments forward to the last acknowledged mutation, also
///     when the older segment ends in a torn record that was never cut;
///   * compaction keeps the live segment under Service::kCompactEvery
///     records and prunes only what no retained snapshot needs;
///   * 10^4 mutations from two clients keep at most
///     IdempotencyWindow::kWindow acks per client: retries inside the
///     window replay byte-identical acks, older ones are refused with
///     kTooOldToReplay and change nothing — also across a restart.

#include <unistd.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "ash/util/atomic_file.h"

namespace ash::fleet {
namespace {

class ServiceRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_recovery_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  ServiceConfig config() const {
    ServiceConfig config;
    config.socket_path = dir_ + "/fleet.sock";
    config.state_dir = dir_;
    config.devices = 8;
    config.seed = 0x5EC0;
    return config;
  }

  /// One schedule-sleep through respond(); the window depends only on the
  /// (client, request) key, so a retry sends identical bytes.
  static Frame book(Service& service, std::uint64_t client,
                    std::uint64_t request_id) {
    ScheduleSleepRequest req;
    req.client_id = client;
    req.device_id = (client * 3 + request_id) % 8;
    req.start = Seconds{60.0 * static_cast<double>(request_id)};
    return service.respond(
        {MessageType::kScheduleSleepRequest, request_id, req.encode()});
  }

  std::string dir_;
};

TEST_F(ServiceRecoveryTest, TornOrFlippedLastRecordRestartsIntoTheAckedPrefix) {
  constexpr std::uint64_t kAcked = 5;
  std::string prefix_state, last_ack;
  {
    Service service(config());
    for (std::uint64_t id = 1; id < kAcked; ++id) book(service, 1, id);
    prefix_state = service.state().serialize();
    last_ack = book(service, 1, kAcked).payload;
  }
  const CheckpointStore store(dir_);
  const std::vector<SegmentFile> segments = store.segment_files(0);
  ASSERT_EQ(segments.size(), 1u);
  const std::string pristine = util::read_file(segments[0].path);
  ASSERT_EQ(pristine.size(), kAcked * MutationRecord::kBytes);
  const std::size_t last = (kAcked - 1) * MutationRecord::kBytes;

  const auto restart_from = [&](const std::string& segment_bytes,
                                const std::string& what) {
    util::atomic_write_file(segments[0].path, segment_bytes);
    std::unique_ptr<Service> service;
    ASSERT_NO_THROW(service = std::make_unique<Service>(config())) << what;
    EXPECT_EQ(service->state().serialize(), prefix_state) << what;
    EXPECT_LT(service->log_records(), Service::kCompactEvery);
    // A retry of an acked request replays; it does not book again.
    (void)book(*service, 1, kAcked - 1);
    EXPECT_EQ(service->state().sequence, kAcked - 1) << what;
    // The lost mutation was never durable, so its retry applies once and
    // acks with the original bytes.
    EXPECT_EQ(book(*service, 1, kAcked).payload, last_ack) << what;
    EXPECT_EQ(book(*service, 1, kAcked).payload, last_ack) << what;
    EXPECT_EQ(service->state().sequence, kAcked) << what;
    EXPECT_EQ(service->state().total_windows(), kAcked) << what;
  };
  for (std::size_t cut = last; cut < pristine.size(); ++cut) {
    restart_from(pristine.substr(0, cut), "cut at " + std::to_string(cut));
  }
  for (std::size_t bit = last * 8; bit < pristine.size() * 8; ++bit) {
    std::string flipped = pristine;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    restart_from(flipped, "bit " + std::to_string(bit));
  }
}

TEST_F(ServiceRecoveryTest, CorruptNewestSnapshotReplaysThroughTheOlderOne) {
  const std::uint64_t total = Service::kCompactEvery + 20;
  std::string acked_state;
  {
    Service service(config());
    for (std::uint64_t id = 1; id <= total; ++id) book(service, 2, id);
    acked_state = service.state().serialize();
  }
  const CheckpointStore store(dir_);
  const std::vector<std::string> snapshots = store.shard_files(0);
  ASSERT_EQ(snapshots.size(), 2u);  // genesis and the first compaction
  std::string newest = util::read_file(snapshots.back());
  newest[newest.size() / 2] = static_cast<char>(newest[newest.size() / 2] ^ 1);
  util::atomic_write_file(snapshots.back(), newest);
  {
    Service reborn(config());
    EXPECT_EQ(reborn.state().serialize(), acked_state);
    EXPECT_EQ(reborn.state().sequence, total);
    // The chain stays whole past the next compaction...
    for (std::uint64_t id = total + 1; id <= 2 * Service::kCompactEvery + 3;
         ++id) {
      book(reborn, 2, id);
    }
    acked_state = reborn.state().serialize();
  }
  // ...and a truncated newest snapshot is skipped the same way.
  const std::vector<std::string> later = store.shard_files(0);
  const std::string bytes = util::read_file(later.back());
  util::atomic_write_file(later.back(), bytes.substr(0, bytes.size() - 7));
  Service again(config());
  EXPECT_EQ(again.state().serialize(), acked_state);
}

TEST_F(ServiceRecoveryTest, TornTailInAnOlderSegmentStillReplaysLaterOnes) {
  const CheckpointStore store(dir_);
  {
    Service service(config());
    for (std::uint64_t id = 1; id <= 3; ++id) book(service, 4, id);
  }
  // A SIGKILL mid-append leaves part of a fourth record in segment 0.
  const std::vector<SegmentFile> first = store.segment_files(0);
  ASSERT_EQ(first.size(), 1u);
  MutationRecord torn;
  torn.sequence = 4;
  torn.client_id = 4;
  torn.request_id = 4;
  util::atomic_write_file(
      first[0].path,
      util::read_file(first[0].path) + torn.encode().substr(0, 20));
  {
    // Restart, then drain without a new mutation: the final snapshot lands
    // at sequence 3 and segment 0 keeps its torn tail (it is only cut
    // before an append).
    Service service(config());
    ASSERT_EQ(service.state().sequence, 3u);
    store.save(0, 3, service.state().serialize());
  }
  std::string acked_state;
  {
    // The next run acks three more mutations into segment 3.
    Service service(config());
    for (std::uint64_t id = 5; id <= 7; ++id) book(service, 4, id);
    acked_state = service.state().serialize();
  }
  ASSERT_EQ(store.segment_files(0).size(), 2u);
  const std::string newest = dir_ + "/" + CheckpointStore::file_name(0, 3);
  std::string bytes = util::read_file(newest);
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 4);
  util::atomic_write_file(newest, bytes);
  {
    // Snapshot 0 + segment 0 up to its torn tail + segment 3.
    Service service(config());
    EXPECT_EQ(service.state().serialize(), acked_state);
    EXPECT_EQ(service.state().sequence, 6u);
    EXPECT_EQ(store.segment_files(0).size(), 2u);
    book(service, 4, 8);
    acked_state = service.state().serialize();
  }
  Service again(config());
  EXPECT_EQ(again.state().serialize(), acked_state);
  EXPECT_EQ(again.state().sequence, 7u);
}

TEST_F(ServiceRecoveryTest, CompactionBoundsTheLogAndPrunesOnlyTheUnneeded) {
  Service service(config());
  const std::uint64_t total = 5 * Service::kCompactEvery + 9;
  for (std::uint64_t id = 1; id <= total; ++id) {
    book(service, 3, id);
    ASSERT_LT(service.log_records(), Service::kCompactEvery);
  }
  EXPECT_EQ(service.log_records(), 9u);
  EXPECT_EQ(service.snapshot_lag(), 0u);
  const CheckpointStore store(dir_);
  const std::vector<std::string> snapshots = store.shard_files(0);
  EXPECT_EQ(snapshots.size(), Service::kSnapshotsKept);
  const std::uint64_t oldest_kept =
      total - 9 - (Service::kSnapshotsKept - 1) * Service::kCompactEvery;
  EXPECT_EQ(snapshots.front(),
            dir_ + "/" + CheckpointStore::file_name(0, oldest_kept));
  const std::vector<SegmentFile> segments = store.segment_files(0);
  ASSERT_EQ(segments.size(), Service::kSnapshotsKept);
  EXPECT_EQ(segments.front().base, oldest_kept);
  EXPECT_EQ(segments.back().base, total - 9);
}

TEST_F(ServiceRecoveryTest, IdempotencyStaysBoundedOverTenThousandMutations) {
  constexpr std::uint64_t kPerClient = 5000;
  constexpr std::size_t kW = IdempotencyWindow::kWindow;
  std::map<std::uint64_t, std::string> acks;  // request id -> client 1 ack
  {
    Service service(config());
    for (std::uint64_t id = 1; id <= kPerClient; ++id) {
      for (std::uint64_t client : {1, 2}) {
        const Frame ack = book(service, client, id);
        ASSERT_EQ(ack.type, MessageType::kScheduleSleepResponse);
        if (client == 1 && id % 50 == 0) acks[id] = ack.payload;
      }
      ASSERT_LE(service.state().idempotency.entries(), 2 * kW);
    }
    EXPECT_EQ(service.state().idempotency.entries(), 2 * kW);
    EXPECT_EQ(service.state().sequence, 2 * kPerClient);
  }
  // Checked after a restart, so the window's contents are durable too.
  Service service(config());
  const std::uint64_t sequence = service.state().sequence;
  const std::uint64_t windows = service.state().total_windows();
  ASSERT_EQ(sequence, 2 * kPerClient);

  // Inside the window: the byte-identical original ack, nothing booked.
  for (std::uint64_t id = (kPerClient - kW) / 50 * 50 + 50; id <= kPerClient;
       id += 50) {
    ASSERT_TRUE(acks.count(id)) << id;
    EXPECT_EQ(book(service, 1, id).payload, acks[id]) << id;
  }
  EXPECT_EQ(service.state().sequence, sequence);

  // Older than the window: refused, and nothing changes.
  for (std::uint64_t id : {std::uint64_t{1}, kPerClient - kW}) {
    const Frame reply = book(service, 1, id);
    ASSERT_EQ(reply.type, MessageType::kErrorResponse) << id;
    EXPECT_EQ(ErrorResponse::parse(reply.payload).status,
              Status::kTooOldToReplay)
        << id;
  }
  EXPECT_EQ(service.state().sequence, sequence);
  EXPECT_EQ(service.state().total_windows(), windows);
  EXPECT_EQ(service.state().idempotency.entries(), 2 * kW);
  EXPECT_EQ(service.stats().too_old, 2u);

  // A new id above the evicted mark applies normally.
  EXPECT_EQ(book(service, 1, kPerClient + 1).type,
            MessageType::kScheduleSleepResponse);
  EXPECT_EQ(service.state().sequence, sequence + 1);
  EXPECT_EQ(service.state().idempotency.entries(), 2 * kW);
}

TEST_F(ServiceRecoveryTest, BelowTheWindowNothingIsEvicted) {
  Service service(config());
  for (std::uint64_t id = 1; id <= IdempotencyWindow::kWindow; ++id) {
    book(service, 5, id);
  }
  EXPECT_FALSE(service.state().idempotency.too_old(5, 1));
  const std::uint64_t sequence = service.state().sequence;
  EXPECT_EQ(book(service, 5, 1).type, MessageType::kScheduleSleepResponse);
  EXPECT_EQ(service.state().sequence, sequence);  // replayed
}

}  // namespace
}  // namespace ash::fleet
