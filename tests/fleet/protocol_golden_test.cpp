/// Golden wire frames: the exact `frame_message` bytes of one fixed instance
/// of every message type.  The payload codec may be rewritten freely; these
/// bytes may not change — a client built against any earlier encoder must
/// keep talking to the daemon byte for byte.  Each case pins the 40-byte
/// header (hex) and the payload document, and requires the payload to parse
/// back to a struct that re-encodes to the same bytes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/protocol.h"
#include "ash/util/units.h"

namespace ash::fleet {
namespace {

std::string hex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

struct Golden {
  MessageType type;
  std::uint64_t request_id;
  /// encode() of the fixed instance.
  std::function<std::string()> encode;
  /// parse() then encode() of a payload.
  std::function<std::string(const std::string&)> reencode;
  const char* header_hex;
  const char* payload;
};

template <class Message>
std::function<std::string(const std::string&)> reencode() {
  return [](const std::string& payload) {
    return Message::parse(payload).encode();
  };
}

std::vector<Golden> goldens() {
  std::vector<Golden> out;
  out.push_back({MessageType::kPingRequest, 1,
                 [] { return PingRequest{}.encode(); },
                 reencode<PingRequest>(),
                 "415348464c545131010000000100000001000000"
                 "0000000000000000000000000000000089465d5d",
                 ""});
  out.push_back({MessageType::kPingResponse, 2,
                 [] { return PingResponse{}.encode(); },
                 reencode<PingResponse>(),
                 "415348464c545131010000000200000002000000"
                 "000000000000000000000000000000006ba2eaaa",
                 ""});
  out.push_back({MessageType::kMarginRequest, 3,
                 [] {
                   MarginRequest m;
                   m.device_id = 17;
                   m.duty = 0.1 + 0.2;
                   m.vdd = Volts{1.0 / 3.0};
                   m.temp = Celsius{81.25};
                   m.horizon = Seconds{3.0e8 + 1.0 / 7.0};
                   return m.encode();
                 },
                 reencode<MarginRequest>(),
                 "415348464c545131010000000300000003000000"
                 "0000000067000000000000005c1b5d6bcf1ebf56",
                 "device 17\n"
                 "duty 0.30000000000000004\n"
                 "vdd_v 0.33333333333333331\n"
                 "temp_c 81.25\n"
                 "horizon_s 300000000.14285713\n"});
  out.push_back({MessageType::kMarginResponse, 4,
                 [] {
                   MarginResponse m;
                   m.crosses = true;
                   m.time_to_margin = Seconds{12345.6789};
                   m.delta_vth = Volts{7.5e-3};
                   m.margin = Volts{12e-3};
                   return m.encode();
                 },
                 reencode<MarginResponse>(),
                 "415348464c545131010000000400000004000000"
                 "000000006900000000000000d4092988cfbacd2a",
                 "status ok\n"
                 "crosses 1\n"
                 "time_to_margin_s 12345.678900000001\n"
                 "delta_vth_v 0.0074999999999999997\n"
                 "margin_v 0.012\n"});
  out.push_back({MessageType::kRejuvenationRequest, 5,
                 [] {
                   RejuvenationRequest m;
                   m.epoch = Seconds{86400.5};
                   return m.encode();
                 },
                 reencode<RejuvenationRequest>(),
                 "415348464c545131010000000500000005000000"
                 "000000001000000000000000755e55b95e2f1c39",
                 "epoch_s 86400.5\n"});
  out.push_back({MessageType::kRejuvenationResponse, 6,
                 [] {
                   RejuvenationResponse m;
                   m.any = true;
                   m.shard_id = 3;
                   m.degradation = 0.0123456789;
                   return m.encode();
                 },
                 reencode<RejuvenationResponse>(),
                 "415348464c545131010000000600000006000000"
                 "0000000031000000000000001ea828fcef91768c",
                 "status ok\n"
                 "any 1\n"
                 "shard 3\n"
                 "degradation 0.0123456789\n"});
  out.push_back({MessageType::kScheduleSleepRequest, 7,
                 [] {
                   ScheduleSleepRequest m;
                   m.client_id = 42;
                   m.device_id = 5;
                   m.start = Seconds{3600.0};
                   m.duration = Seconds{21600.125};
                   return m.encode();
                 },
                 reencode<ScheduleSleepRequest>(),
                 "415348464c545131010000000700000007000000"
                 "00000000350000000000000087b04f15ab0f254a",
                 "client 42\n"
                 "device 5\n"
                 "start_s 3600\n"
                 "duration_s 21600.125\n"});
  out.push_back({MessageType::kScheduleSleepResponse, 8,
                 [] {
                   ScheduleSleepResponse m;
                   m.newly_applied = true;
                   m.windows = 4;
                   return m.encode();
                 },
                 reencode<ScheduleSleepResponse>(),
                 "415348464c545131010000000800000008000000"
                 "000000002400000000000000b452042c97986246",
                 "status ok\n"
                 "newly_applied 1\n"
                 "windows 4\n"});
  out.push_back({MessageType::kStatusRequest, 9,
                 [] { return StatusRequest{}.encode(); },
                 reencode<StatusRequest>(),
                 "415348464c545131010000000900000009000000"
                 "0000000000000000000000000000000085ac8b12",
                 ""});
  out.push_back({MessageType::kStatusResponse, 10,
                 [] {
                   StatusResponse m;
                   m.devices = 256;
                   m.windows = 9;
                   m.sequence = 18446744073709551615u;
                   m.draining = true;
                   return m.encode();
                 },
                 reencode<StatusResponse>(),
                 "415348464c545131010000000a0000000a000000"
                 "0000000049000000000000003cf8dad0365fd8b4",
                 "status ok\n"
                 "devices 256\n"
                 "windows 9\n"
                 "sequence 18446744073709551615\n"
                 "draining 1\n"});
  out.push_back({MessageType::kErrorResponse, 11,
                 [] {
                   ErrorResponse m;
                   m.status = Status::kTooOldToReplay;
                   m.message = "request 3 of client 1 left its window";
                   return m.encode();
                 },
                 reencode<ErrorResponse>(),
                 "415348464c545131010000000b0000000b000000"
                 "0000000047000000000000006fd8c26fa1029b81",
                 "status too-old-to-replay\n"
                 "message request 3 of client 1 left its window\n"});
  out.push_back({MessageType::kMetricsRequest, 13,
                 [] {
                   MetricsRequest m;
                   m.prefix = "fleet.service.";
                   return m.encode();
                 },
                 reencode<MetricsRequest>(),
                 "415348464c545131010000000d0000000d000000"
                 "000000001600000000000000769ff362182373f2",
                 "prefix fleet.service.\n"});
  out.push_back({MessageType::kMetricsResponse, 14,
                 [] {
                   MetricsResponse m;
                   m.status = Status::kOk;
                   m.text = "a.count=3\na.sum=0.25\n\nweird = line\n";
                   return m.encode();
                 },
                 reencode<MetricsResponse>(),
                 "415348464c545131010000000e0000000e000000"
                 "00000000360000000000000074cc1edff0060687",
                 "status ok\n"
                 "bytes 35\n"
                 "a.count=3\n"
                 "a.sum=0.25\n"
                 "\n"
                 "weird = line\n"});
  out.push_back({MessageType::kProfileRequest, 15,
                 [] { return ProfileRequest{}.encode(); },
                 reencode<ProfileRequest>(),
                 "415348464c545131010000000f0000000f000000"
                 "0000000000000000000000000000000000639526",
                 ""});
  out.push_back({MessageType::kProfileResponse, 16,
                 [] {
                   ProfileResponse m;
                   m.profiling = true;
                   m.kernels.push_back({"bti.trap_ensemble.evolve", 12345,
                                        6789012});
                   m.kernels.push_back({"mc.interval", 7, 42});
                   return m.encode();
                 },
                 reencode<ProfileResponse>(),
                 "415348464c545131010000001000000010000000"
                 "0000000066000000000000005f05780efe062674",
                 "status ok\n"
                 "profiling 1\n"
                 "kernels 2\n"
                 "kernel bti.trap_ensemble.evolve 12345 6789012\n"
                 "kernel mc.interval 7 42\n"});
  out.push_back({MessageType::kHealthRequest, 17,
                 [] { return HealthRequest{}.encode(); },
                 reencode<HealthRequest>(),
                 "415348464c545131010000001100000011000000"
                 "000000000000000000000000000000009192f0c2",
                 ""});
  out.push_back({MessageType::kHealthResponse, 18,
                 [] {
                   HealthResponse m;
                   m.poll_iterations = 4096;
                   m.connections = 3;
                   m.connections_high_water = 9;
                   m.queue_depth_high_water = 8;
                   m.requests = 512;
                   m.shed = 4;
                   m.snapshot_lag = 1;
                   m.draining = false;
                   return m.encode();
                 },
                 reencode<HealthResponse>(),
                 "415348464c545131010000001200000012000000"
                 "000000008d00000000000000eb7ad19b508dc96c",
                 "status ok\n"
                 "poll_iterations 4096\n"
                 "connections 3\n"
                 "connections_high_water 9\n"
                 "queue_depth_high_water 8\n"
                 "requests 512\n"
                 "shed 4\n"
                 "snapshot_lag 1\n"
                 "draining 0\n"});
  out.push_back({MessageType::kMarginBatchRequest, 19,
                 [] {
                   MarginBatchRequest m;
                   m.device_ids = {0, 7, 3};
                   m.duty = 0.25;
                   m.vdd = Volts{1.1};
                   m.temp = Celsius{-40.0};
                   m.horizon = Seconds{3.15e8};
                   return m.encode();
                 },
                 reencode<MarginBatchRequest>(),
                 "415348464c545131010000001300000013000000"
                 "00000000670000000000000054a893ea07eb7804",
                 "duty 0.25\n"
                 "vdd_v 1.1000000000000001\n"
                 "temp_c -40\n"
                 "horizon_s 315000000\n"
                 "devices 3\n"
                 "device 0\n"
                 "device 7\n"
                 "device 3\n"});
  out.push_back({MessageType::kMarginBatchResponse, 20,
                 [] {
                   MarginBatchResponse m;
                   m.margin = Volts{12e-3};
                   m.rows = {{0, true, Seconds{123.25}, Volts{0.011}},
                             {42, false, Seconds{3.15e8}, Volts{0.0005}}};
                   return m.encode();
                 },
                 reencode<MarginBatchResponse>(),
                 "415348464c545131010000001400000014000000"
                 "000000006e000000000000000a9e3bc579aab68f",
                 "status ok\n"
                 "margin_v 0.012\n"
                 "rows 2\n"
                 "row 0 1 123.25 0.010999999999999999\n"
                 "row 42 0 315000000 0.00050000000000000001\n"});
  return out;
}

TEST(GoldenFrames, EveryMessageTypeFramesToThePinnedBytes) {
  const std::vector<Golden> cases = goldens();
  ASSERT_EQ(cases.size(), 19u);
  for (const Golden& g : cases) {
    const std::string payload = g.encode();
    const std::string frame = frame_message(g.type, g.request_id, payload);
    ASSERT_GE(frame.size(), kFrameHeaderSize);
    const std::string header = frame.substr(0, kFrameHeaderSize);
    EXPECT_EQ(hex(header), g.header_hex) << to_string(g.type);
    EXPECT_EQ(frame.substr(kFrameHeaderSize), g.payload) << to_string(g.type);
    EXPECT_EQ(g.reencode(g.payload), g.payload) << to_string(g.type);
  }
}

}  // namespace
}  // namespace ash::fleet
