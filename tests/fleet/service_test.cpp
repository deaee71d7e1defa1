#include "ash/fleet/service.h"

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/protocol.h"
#include "ash/mc/margin.h"
#include "ash/obs/metrics.h"

namespace ash::fleet {
namespace {

/// mkdtemp fixture: each test gets a private state directory and a service
/// configured for in-process respond()/process_tick() testing (no socket).
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_fleetd_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  ServiceConfig small_config() const {
    ServiceConfig config;
    config.socket_path = dir_ + "/fleet.sock";
    config.state_dir = dir_;
    config.devices = 8;
    config.seed = 0xF1EE7;
    config.max_request_queue = 4;
    return config;
  }

  static Frame request(MessageType type, std::uint64_t id,
                       const std::string& payload) {
    Frame frame;
    frame.type = type;
    frame.request_id = id;
    frame.payload = payload;
    return frame;
  }

  std::string dir_;
};

TEST_F(ServiceTest, GenesisIsDeterministic) {
  const ServiceState a = ServiceState::genesis(8, Volts{12e-3}, 42);
  const ServiceState b = ServiceState::genesis(8, Volts{12e-3}, 42);
  const ServiceState c = ServiceState::genesis(8, Volts{12e-3}, 43);
  ASSERT_EQ(a.devices.size(), 8u);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_NE(a.serialize(), c.serialize());
  for (const DeviceAging& device : a.devices) {
    EXPECT_GE(device.delta_vth.value(), 0.0);
    EXPECT_LE(device.delta_vth.value(), 0.9 * 12e-3);
  }
}

TEST_F(ServiceTest, StateSerializationRoundTripsBitExactly) {
  ServiceState state = ServiceState::genesis(3, Volts{12e-3}, 7);
  state.sequence = 5;
  state.devices[1].windows.push_back({Seconds{3600.0}, Seconds{21600.0}});
  state.idempotency.remember({42, 9, 1});
  const std::string bytes = state.serialize();
  const ServiceState back = ServiceState::deserialize(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.sequence, 5u);
  EXPECT_EQ(back.total_windows(), 1u);
  ASSERT_NE(back.find_applied(42, 9), nullptr);
  EXPECT_EQ(back.find_applied(42, 9)->windows_after, 1u);
  EXPECT_EQ(back.find_applied(42, 10), nullptr);
}

TEST_F(ServiceTest, StateDeserializeRejectsMalformedInput) {
  const std::string good = ServiceState::genesis(2, Volts{12e-3}, 1)
                               .serialize();
  EXPECT_THROW(ServiceState::deserialize(""), std::runtime_error);
  EXPECT_THROW(ServiceState::deserialize("not a state doc\n"),
               std::runtime_error);
  // Missing terminator: a torn text body must not deserialize.
  EXPECT_THROW(ServiceState::deserialize(good.substr(0, good.size() - 4)),
               std::runtime_error);
}

/// A small valid state document with windows, acks and an eviction mark.
std::string sample_state_document() {
  ServiceState state = ServiceState::genesis(3, Volts{12e-3}, 11);
  MutationRecord record;
  record.client_id = 4;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    record.sequence = state.sequence + 1;
    record.request_id = id;
    record.device_id = id % 3;
    record.start = Seconds{3600.0 * static_cast<double>(id)};
    record.duration = Seconds{1.0 / 3.0};
    state.apply(record);
  }
  state.idempotency.restore_evicted(9, 77);
  return state.serialize();
}

/// `doc` with every line equal to `line` removed.
std::string without_line(const std::string& doc, const std::string& line) {
  std::string out;
  std::size_t pos = 0;
  while (pos < doc.size()) {
    const std::size_t eol = doc.find('\n', pos);
    const std::string current = doc.substr(pos, eol - pos);
    if (current != line) out += current + "\n";
    pos = eol + 1;
  }
  return out;
}

TEST_F(ServiceTest, StateWithEvictionMarksRoundTripsCanonically) {
  const std::string doc = sample_state_document();
  EXPECT_NE(doc.find("evicted 9 77\n"), std::string::npos);
  const ServiceState back = ServiceState::deserialize(doc);
  EXPECT_EQ(back.serialize(), doc);
  EXPECT_TRUE(back.idempotency.too_old(9, 77));
  EXPECT_FALSE(back.idempotency.too_old(9, 78));
  EXPECT_EQ(back.idempotency.entries(), 3u);
  ASSERT_NE(back.find_applied(4, 2), nullptr);
  EXPECT_EQ(back.find_applied(4, 2)->windows_after, 1u);
}

TEST_F(ServiceTest, StateDeserializeCapsTheDeclaredDeviceCount) {
  // Found by fuzzing: a hostile count must be refused before any resize,
  // as std::runtime_error (never std::length_error or std::bad_alloc).
  const std::string head = "ash-fleet-service v1\nsequence 0\nmargin_v 0.012\n";
  for (const char* count : {"18446744073709551615", "1048577", "4000"}) {
    const std::string doc = head + "devices " + count + "\nend\n";
    try {
      (void)ServiceState::deserialize(doc);
      ADD_FAILURE() << "accepted devices " << count;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("device count"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ServiceTest, StateDeserializeDemandsEveryKeyExactlyOnce) {
  const std::string doc = sample_state_document();
  ASSERT_NO_THROW((void)ServiceState::deserialize(doc));
  const auto rejects = [](const std::string& bad, const char* what) {
    EXPECT_THROW((void)ServiceState::deserialize(bad), std::runtime_error)
        << what;
  };
  // Repeated keys.
  for (const char* line : {"sequence 3\n", "margin_v 0.012\n",
                           "devices 3\n", "evicted 9 1\n"}) {
    std::string bad = doc;
    bad.insert(bad.find("end\n"), line);
    rejects(bad, line);
  }
  {
    std::string bad = doc;
    const std::size_t at = bad.find("device 1 ");
    bad.insert(at, bad.substr(at, bad.find('\n', at) + 1 - at));
    rejects(bad, "repeated device line");
  }
  {
    std::string bad = doc;
    const std::size_t at = bad.find("applied 4 2 ");
    bad.insert(bad.find("end\n"),
               bad.substr(at, bad.find('\n', at) + 1 - at));
    rejects(bad, "repeated idempotency key");
  }
  // Dropped keys.
  rejects(without_line(doc, "sequence 3"), "no sequence");
  rejects(without_line(doc, "devices 3"), "no devices");
  {
    const std::size_t at = doc.find("margin_v ");
    rejects(without_line(doc, doc.substr(at, doc.find('\n', at) - at)),
            "no margin_v");
    const std::size_t dev = doc.find("device 2 ");
    rejects(without_line(doc, doc.substr(dev, doc.find('\n', dev) - dev)),
            "device line dropped");
  }
  // Trailing tokens, non-finite values, out-of-range ids.
  {
    std::string bad = doc;
    bad.replace(bad.find("sequence 3\n"), 11, "sequence 3 junk\n");
    rejects(bad, "trailing token");
  }
  {
    std::string bad = doc;
    bad.insert(bad.find("end\n"), "window 0 inf 1\n");
    rejects(bad, "non-finite window");
    bad = doc;
    bad.insert(bad.find("end\n"), "window 3 1 1\n");
    rejects(bad, "window device out of range");
    bad = doc;
    bad.insert(bad.find("end\n"), "window -1 1 1\n");
    rejects(bad, "negative id");
  }
}

TEST_F(ServiceTest, StateDeserializeThrowsOnlyRuntimeErrors) {
  // Every strict prefix and every single-byte substitution either parses
  // or throws std::runtime_error — nothing else may escape.
  const std::string doc = sample_state_document();
  for (std::size_t cut = 0; cut < doc.size(); ++cut) {
    EXPECT_THROW((void)ServiceState::deserialize(doc.substr(0, cut)),
                 std::runtime_error)
        << "prefix of " << cut << " bytes";
  }
  for (std::size_t at = 0; at < doc.size(); ++at) {
    for (const char c : {'\0', '9', ' ', '\n', '-', 'e'}) {
      std::string mutated = doc;
      mutated[at] = c;
      try {
        (void)ServiceState::deserialize(mutated);
      } catch (const std::runtime_error&) {
      } catch (...) {
        ADD_FAILURE() << "non-runtime_error escaped at byte " << at;
      }
    }
  }
}

TEST_F(ServiceTest, MutationRecordRoundTripsBitExactly) {
  MutationRecord record;
  record.sequence = 0x0102030405060708ULL;
  record.client_id = ~std::uint64_t{0};
  record.request_id = 42;
  record.device_id = 6;
  record.start = Seconds{-0.0};
  record.duration = Seconds{4.9406564584124654e-324};  // denormal
  const std::string bytes = record.encode();
  ASSERT_EQ(bytes.size(), MutationRecord::kBytes);
  const MutationRecord back = MutationRecord::decode(bytes, 8);
  EXPECT_EQ(back.sequence, record.sequence);
  EXPECT_EQ(back.client_id, record.client_id);
  EXPECT_EQ(back.request_id, record.request_id);
  EXPECT_EQ(back.device_id, record.device_id);
  EXPECT_TRUE(std::signbit(back.start.value()));
  EXPECT_EQ(back.duration.value(), record.duration.value());
  EXPECT_EQ(back.encode(), bytes);
}

TEST_F(ServiceTest, MutationRecordDecoderRejectsEveryCorruption) {
  MutationRecord record;
  record.sequence = 7;
  record.device_id = 2;
  record.start = Seconds{3600.0};
  record.duration = Seconds{21600.0};
  const std::string bytes = record.encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)MutationRecord::decode(bytes.substr(0, cut), 8),
                 std::runtime_error);
  }
  EXPECT_THROW((void)MutationRecord::decode(bytes + "x", 8),
               std::runtime_error);
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_THROW((void)MutationRecord::decode(flipped, 8), std::runtime_error)
        << "bit " << bit;
  }
  // CRC-valid but semantically out of range.
  EXPECT_THROW((void)MutationRecord::decode(bytes, 2), std::runtime_error);
  MutationRecord nan = record;
  nan.start = Seconds{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)MutationRecord::decode(nan.encode(), 8),
               std::runtime_error);
}

TEST_F(ServiceTest, MarginQueryMatchesDirectProjection) {
  Service service(small_config());
  MarginRequest req;
  req.device_id = 2;
  req.duty = 0.75;
  const Frame reply = service.respond(
      request(MessageType::kMarginRequest, 1, req.encode()));
  ASSERT_EQ(reply.type, MessageType::kMarginResponse);
  EXPECT_EQ(reply.request_id, 1u);
  const MarginResponse resp = MarginResponse::parse(reply.payload);
  EXPECT_EQ(resp.status, Status::kOk);
  // The service's answer is the closed-form projection of the device's
  // durable aging estimate — recompute it directly and demand equality.
  mc::MarginQuery query;
  query.delta_vth = service.state().devices[2].delta_vth;
  query.margin = service.state().margin;
  query.duty = req.duty;
  query.vdd = req.vdd;
  query.temp = req.temp;
  query.horizon = req.horizon;
  const mc::MarginOutlook outlook = mc::margin_outlook(
      bti::ClosedFormModel(service.config().physics), query);
  EXPECT_EQ(resp.crosses, outlook.crosses);
  EXPECT_EQ(resp.time_to_margin.value(), outlook.time_to_margin.value());
  EXPECT_EQ(resp.delta_vth.value(),
            service.state().devices[2].delta_vth.value());
}

TEST_F(ServiceTest, MarginBatchRowsMatchSingleMarginAnswersBitExactly) {
  Service service(small_config());
  MarginBatchRequest batch;
  batch.device_ids = {5, 0, 3, 5};  // out of order + repeated: both legal
  batch.duty = 0.75;
  batch.vdd = Volts{1.1};
  batch.temp = Celsius{95.0};
  const Frame reply = service.respond(
      request(MessageType::kMarginBatchRequest, 7, batch.encode()));
  ASSERT_EQ(reply.type, MessageType::kMarginBatchResponse);
  EXPECT_EQ(reply.request_id, 7u);
  const MarginBatchResponse resp = MarginBatchResponse::parse(reply.payload);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.margin.value(), service.state().margin.value());
  ASSERT_EQ(resp.rows.size(), batch.device_ids.size());
  for (std::size_t i = 0; i < batch.device_ids.size(); ++i) {
    MarginRequest solo;
    solo.device_id = batch.device_ids[i];
    solo.duty = batch.duty;
    solo.vdd = batch.vdd;
    solo.temp = batch.temp;
    solo.horizon = batch.horizon;
    const Frame solo_reply = service.respond(
        request(MessageType::kMarginRequest, 100 + i, solo.encode()));
    ASSERT_EQ(solo_reply.type, MessageType::kMarginResponse);
    const MarginResponse solo_resp = MarginResponse::parse(solo_reply.payload);
    EXPECT_EQ(resp.rows[i].device_id, batch.device_ids[i]);
    EXPECT_EQ(resp.rows[i].crosses, solo_resp.crosses) << "row " << i;
    EXPECT_EQ(resp.rows[i].time_to_margin.value(),
              solo_resp.time_to_margin.value())
        << "row " << i;
    EXPECT_EQ(resp.rows[i].delta_vth.value(), solo_resp.delta_vth.value())
        << "row " << i;
  }
}

TEST_F(ServiceTest, MarginBatchWithUnknownDeviceEarnsUnknownDeviceStatus) {
  Service service(small_config());
  MarginBatchRequest batch;
  batch.device_ids = {1, 999, 2};  // 999 does not exist: whole batch fails
  const Frame reply = service.respond(
      request(MessageType::kMarginBatchRequest, 8, batch.encode()));
  ASSERT_EQ(reply.type, MessageType::kErrorResponse);
  const ErrorResponse err = ErrorResponse::parse(reply.payload);
  EXPECT_EQ(err.status, Status::kUnknownDevice);
  EXPECT_NE(err.message.find("not tracked"), std::string::npos);
}

TEST_F(ServiceTest, UnknownDeviceEarnsUnknownDeviceStatus) {
  Service service(small_config());
  MarginRequest req;
  req.device_id = 999;  // only 8 devices exist
  const Frame reply = service.respond(
      request(MessageType::kMarginRequest, 2, req.encode()));
  ASSERT_EQ(reply.type, MessageType::kErrorResponse);
  const ErrorResponse err = ErrorResponse::parse(reply.payload);
  EXPECT_EQ(err.status, Status::kUnknownDevice);
  EXPECT_NE(err.message.find("not tracked"), std::string::npos);
}

TEST_F(ServiceTest, HostilePayloadEarnsErrorResponseNeverThrows) {
  Service service(small_config());
  const std::vector<std::string> hostile = {
      "",                        // missing every field
      "duty 0.5\n",              // missing fields
      "device 0\nduty 2.0\nvdd_v 1.2\ntemp_c 80\nhorizon_s 1\n",  // range
      std::string(512, '\xff'),  // binary garbage
      "device 0 device 0\n",     // malformed line
  };
  for (const std::string& payload : hostile) {
    Frame reply;
    ASSERT_NO_THROW(
        reply = service.respond(
            request(MessageType::kMarginRequest, 3, payload)))
        << "payload threw instead of answering";
    ASSERT_EQ(reply.type, MessageType::kErrorResponse);
    EXPECT_EQ(ErrorResponse::parse(reply.payload).status,
              Status::kBadRequest);
  }
}

TEST_F(ServiceTest, MaximalHostileLineEarnsAFrameableError) {
  // A valid max-size frame whose payload is one line of non-space bytes:
  // the error reply must quote a bounded prefix of it, or framing the reply
  // throws outside the request's try block and takes the daemon down.
  Service service(small_config());
  const std::string payload =
      std::string(kMaxFramePayload - 1, 'x') + '\n';
  const std::string wire =
      frame_message(MessageType::kMarginRequest, 4, payload);
  const Frame reply = service.respond(decode_frame(wire));
  ASSERT_EQ(reply.type, MessageType::kErrorResponse);
  EXPECT_EQ(ErrorResponse::parse(reply.payload).status, Status::kBadRequest);
  EXPECT_LT(reply.payload.size(), 512u);
  EXPECT_NO_THROW(
      (void)frame_message(reply.type, reply.request_id, reply.payload));
}

TEST_F(ServiceTest, ScheduleSleepIsIdempotentAndByteStable) {
  Service service(small_config());
  ScheduleSleepRequest req;
  req.client_id = 42;
  req.device_id = 1;
  req.start = Seconds{3600.0};
  const Frame first = service.respond(
      request(MessageType::kScheduleSleepRequest, 10, req.encode()));
  ASSERT_EQ(first.type, MessageType::kScheduleSleepResponse);
  const ScheduleSleepResponse ack =
      ScheduleSleepResponse::parse(first.payload);
  EXPECT_EQ(ack.status, Status::kOk);
  EXPECT_TRUE(ack.newly_applied);
  EXPECT_EQ(ack.windows, 1u);
  EXPECT_EQ(service.state().sequence, 1u);
  EXPECT_EQ(service.stats().mutations, 1u);

  // The retry: same (client, request id) — the replay must reproduce the
  // ORIGINAL acknowledgement bytes and must not double-book the window.
  const Frame retry = service.respond(
      request(MessageType::kScheduleSleepRequest, 10, req.encode()));
  EXPECT_EQ(retry.payload, first.payload);
  EXPECT_EQ(retry.request_id, first.request_id);
  EXPECT_EQ(service.state().devices[1].windows.size(), 1u);
  EXPECT_EQ(service.state().sequence, 1u);
  EXPECT_EQ(service.stats().replays, 1u);

  // A different request id from the same client is a new booking.
  const Frame second = service.respond(
      request(MessageType::kScheduleSleepRequest, 11, req.encode()));
  EXPECT_EQ(ScheduleSleepResponse::parse(second.payload).windows, 2u);
  EXPECT_EQ(service.state().sequence, 2u);
}

TEST_F(ServiceTest, MutationIsDurableBeforeTheAck) {
  // Write-ahead contract: once respond() returns the acknowledgement, a
  // brand-new Service over the same state_dir (the SIGKILL-and-restart
  // path) must already know the mutation AND replay the same ack bytes.
  const ServiceConfig config = small_config();
  std::string first_payload;
  {
    Service service(config);
    ScheduleSleepRequest req;
    req.client_id = 7;
    req.device_id = 3;
    first_payload =
        service
            .respond(request(MessageType::kScheduleSleepRequest, 5,
                             req.encode()))
            .payload;
  }
  Service reborn(config);
  EXPECT_EQ(reborn.state().sequence, 1u);
  EXPECT_EQ(reborn.state().devices[3].windows.size(), 1u);
  ScheduleSleepRequest req;
  req.client_id = 7;
  req.device_id = 3;
  const Frame replay = reborn.respond(
      request(MessageType::kScheduleSleepRequest, 5, req.encode()));
  EXPECT_EQ(replay.payload, first_payload);
  EXPECT_EQ(reborn.state().sequence, 1u);  // not double-applied
}

TEST_F(ServiceTest, BoundedQueueShedsExactlyTheOverflow) {
  Service service(small_config());  // max_request_queue = 4
  std::vector<Frame> requests;
  for (std::uint64_t i = 0; i < 9; ++i) {
    requests.push_back(request(MessageType::kPingRequest, 100 + i, ""));
  }
  const std::vector<Frame> replies = service.process_tick(requests);
  ASSERT_EQ(replies.size(), 9u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].request_id, 100 + i);  // 1:1, in order
    if (i < 4) {
      EXPECT_EQ(replies[i].type, MessageType::kPingResponse);
    } else {
      ASSERT_EQ(replies[i].type, MessageType::kErrorResponse);
      EXPECT_EQ(ErrorResponse::parse(replies[i].payload).status,
                Status::kOverloaded);
    }
  }
  EXPECT_EQ(service.stats().requests, 4u);
  EXPECT_EQ(service.stats().shed, 5u);
}

TEST_F(ServiceTest, RejuvenationWithNoCampaignSaysNone) {
  Service service(small_config());  // no campaign_dir configured
  const Frame reply = service.respond(request(
      MessageType::kRejuvenationRequest, 20, RejuvenationRequest().encode()));
  const RejuvenationResponse resp =
      RejuvenationResponse::parse(reply.payload);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_FALSE(resp.any);
  EXPECT_EQ(resp.shard_id, -1);
}

TEST_F(ServiceTest, StatusReportsDurableStateOnly) {
  Service service(small_config());
  const Frame reply = service.respond(
      request(MessageType::kStatusRequest, 30, StatusRequest().encode()));
  const StatusResponse resp = StatusResponse::parse(reply.payload);
  EXPECT_EQ(resp.devices, 8u);
  EXPECT_EQ(resp.windows, 0u);
  EXPECT_EQ(resp.sequence, 0u);
  EXPECT_FALSE(resp.draining);
  // The payload must not contain any operational tally (those are
  // chaos-dependent and live in metrics instead).
  EXPECT_EQ(reply.payload.find("requests"), std::string::npos);
  EXPECT_EQ(reply.payload.find("evictions"), std::string::npos);
}

TEST_F(ServiceTest, StatsPublishMirrorsTheStruct) {
  Service service(small_config());
  (void)service.process_tick(
      {request(MessageType::kPingRequest, 1, std::string())});
  obs::Registry registry;
  service.stats().publish(registry);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("fleet.service.requests"), 1u);
  EXPECT_EQ(snapshot.counter("fleet.service.responses"), 1u);
  EXPECT_EQ(snapshot.counter("fleet.service.shed"), 0u);
}

TEST_F(ServiceTest, RestartAfterGenesisIsStable) {
  const ServiceConfig config = small_config();
  std::string first;
  {
    Service service(config);
    first = service.state().serialize();
  }
  // Same dir, same seed: the reborn service resumes the SAME durable state
  // (from the snapshot, not a re-roll of genesis).
  Service reborn(config);
  EXPECT_EQ(reborn.state().serialize(), first);
}

TEST_F(ServiceTest, NonsensicalTunablesAreRejected) {
  ServiceConfig config = small_config();
  config.max_request_queue = 0;
  EXPECT_THROW(Service{config}, std::invalid_argument);
  config = small_config();
  config.io_timeout_ms = -5;
  EXPECT_THROW(Service{config}, std::invalid_argument);
  config = small_config();
  config.devices = 0;
  EXPECT_THROW(Service{config}, std::invalid_argument);
  config = small_config();
  config.state_dir = dir_ + "/missing";
  EXPECT_THROW(Service{config}, std::runtime_error);
  config = small_config();
  config.socket_path = dir_ + "/" + std::string(200, 'x') + ".sock";
  EXPECT_THROW(Service{config}, std::invalid_argument);
}

}  // namespace
}  // namespace ash::fleet
