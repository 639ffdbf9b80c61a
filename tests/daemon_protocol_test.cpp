// Wire-framing tests for the agard protocol: encode/decode roundtrips plus
// the malformed-frame matrix — truncated, oversized, garbage and
// wrong-version frames must raise ProtocolError, never crash or misparse.
#include "daemon/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace agar::daemon {
namespace {

std::vector<unsigned char> header_bytes(const std::string& frame) {
  return {frame.begin(), frame.begin() + kHeaderBytes};
}

TEST(DaemonProtocol, HeaderRoundtripAllTypes) {
  for (const MsgType type :
       {MsgType::kGet, MsgType::kMetrics, MsgType::kReload, MsgType::kPing,
        MsgType::kShutdown, MsgType::kRoutes, MsgType::kDrain,
        MsgType::kRepair, MsgType::kSpecOf}) {
    for (const bool is_reply : {false, true}) {
      const std::string frame = encode_frame(type, is_reply, "body");
      ASSERT_EQ(frame.size(), kHeaderBytes + 4);
      const auto bytes = header_bytes(frame);
      const FrameHeader header = decode_header(bytes.data(), bytes.size());
      EXPECT_EQ(header.type, type);
      EXPECT_EQ(header.is_reply, is_reply);
      EXPECT_EQ(header.body_len, 4u);
    }
  }
}

TEST(DaemonProtocol, TruncatedHeaderThrows) {
  const std::string frame = encode_frame(MsgType::kPing, false, "");
  for (std::size_t len = 0; len < kHeaderBytes; ++len) {
    const auto bytes = header_bytes(frame);
    EXPECT_THROW((void)decode_header(bytes.data(), len), ProtocolError)
        << "len=" << len;
  }
}

TEST(DaemonProtocol, BadMagicThrows) {
  std::string frame = encode_frame(MsgType::kPing, false, "");
  frame[0] = 'X';
  const auto bytes = header_bytes(frame);
  EXPECT_THROW((void)decode_header(bytes.data(), bytes.size()), ProtocolError);
}

TEST(DaemonProtocol, WrongVersionThrows) {
  std::string frame = encode_frame(MsgType::kPing, false, "");
  frame[4] = static_cast<char>(kVersion + 1);
  const auto bytes = header_bytes(frame);
  EXPECT_THROW((void)decode_header(bytes.data(), bytes.size()), ProtocolError);
}

TEST(DaemonProtocol, ReservedBytesMustBeZero) {
  std::string frame = encode_frame(MsgType::kPing, false, "");
  frame[6] = 1;
  auto bytes = header_bytes(frame);
  EXPECT_THROW((void)decode_header(bytes.data(), bytes.size()), ProtocolError);
  frame[6] = 0;
  frame[7] = 42;
  bytes = header_bytes(frame);
  EXPECT_THROW((void)decode_header(bytes.data(), bytes.size()), ProtocolError);
}

TEST(DaemonProtocol, UnknownTypeThrows) {
  std::string frame = encode_frame(MsgType::kPing, false, "");
  frame[5] = 0;  // below kGet
  auto bytes = header_bytes(frame);
  EXPECT_THROW((void)decode_header(bytes.data(), bytes.size()), ProtocolError);
  frame[5] = 99;  // above kSpecOf, reply bit clear
  bytes = header_bytes(frame);
  EXPECT_THROW((void)decode_header(bytes.data(), bytes.size()), ProtocolError);
}

TEST(DaemonProtocol, OversizedBodyLengthThrows) {
  std::string frame = encode_frame(MsgType::kGet, false, "");
  const std::uint32_t huge = kMaxBodyBytes + 1;
  frame[8] = static_cast<char>(huge & 0xFF);
  frame[9] = static_cast<char>((huge >> 8) & 0xFF);
  frame[10] = static_cast<char>((huge >> 16) & 0xFF);
  frame[11] = static_cast<char>((huge >> 24) & 0xFF);
  const auto bytes = header_bytes(frame);
  EXPECT_THROW((void)decode_header(bytes.data(), bytes.size()), ProtocolError);
}

TEST(DaemonProtocol, GarbageHeaderThrows) {
  // 12 bytes of noise: whatever the bytes, the outcome is an exception,
  // not UB. A fixed pattern keeps the test deterministic.
  unsigned char noise[kHeaderBytes];
  unsigned char x = 0xA5;
  for (auto& b : noise) {
    b = x;
    x = static_cast<unsigned char>(x * 31 + 7);
  }
  EXPECT_THROW((void)decode_header(noise, sizeof(noise)), ProtocolError);
}

TEST(DaemonProtocol, GetRequestRoundtrip) {
  const GetRequest request{"hot", "object42", true};
  const GetRequest decoded = decode_get_request(encode_get_request(request));
  EXPECT_EQ(decoded.tag, "hot");
  EXPECT_EQ(decoded.key, "object42");
  EXPECT_TRUE(decoded.want_payload);
}

TEST(DaemonProtocol, GetRequestEmptyKeyRejected) {
  EXPECT_THROW(decode_get_request(encode_get_request(GetRequest{"t", "", 0})),
               ProtocolError);
}

TEST(DaemonProtocol, GetRequestTruncationsThrow) {
  const std::string body =
      encode_get_request(GetRequest{"tag", "object7", false});
  // Every strict prefix must fail cleanly — the decoder may never read
  // past the buffer it was handed.
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_THROW(decode_get_request(body.substr(0, len)), ProtocolError)
        << "len=" << len;
  }
  // Trailing junk is as malformed as a truncation.
  EXPECT_THROW(decode_get_request(body + "x"), ProtocolError);
}

TEST(DaemonProtocol, GetResponseRoundtrip) {
  GetResponse response;
  response.status = Status::kOk;
  response.hit = HitKind::kPartial;
  response.degraded = true;
  response.route = 3;
  response.virtual_ms = 123.875;
  response.wall_us = 456789;
  response.payload = std::string("\x00\x01payload\xFF", 10);
  const GetResponse decoded =
      decode_get_response(encode_get_response(response));
  EXPECT_EQ(decoded.status, Status::kOk);
  EXPECT_EQ(decoded.hit, HitKind::kPartial);
  EXPECT_TRUE(decoded.degraded);
  EXPECT_EQ(decoded.route, 3u);
  EXPECT_DOUBLE_EQ(decoded.virtual_ms, 123.875);
  EXPECT_EQ(decoded.wall_us, 456789u);
  EXPECT_EQ(decoded.payload, response.payload);
}

TEST(DaemonProtocol, GetResponseTruncationsThrow) {
  GetResponse response;
  response.payload = "bytes";
  const std::string body = encode_get_response(response);
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_THROW(decode_get_response(body.substr(0, len)), ProtocolError)
        << "len=" << len;
  }
}

TEST(DaemonProtocol, ControlReplyRoundtrip) {
  const ControlReply reply{Status::kError, "boom: details"};
  const ControlReply decoded =
      decode_control_reply(encode_control_reply(reply));
  EXPECT_EQ(decoded.status, Status::kError);
  EXPECT_EQ(decoded.text, "boom: details");
}

TEST(DaemonProtocol, ControlReplyEmptyBodyThrows) {
  EXPECT_THROW(decode_control_reply(""), ProtocolError);
}

TEST(DaemonProtocol, StatusNamesCoverEveryValue) {
  for (const Status s :
       {Status::kOk, Status::kFailedRead, Status::kNoRoute,
        Status::kUnknownKey, Status::kBadRequest, Status::kError,
        Status::kShuttingDown}) {
    EXPECT_STRNE(to_string(s), "");
  }
}

}  // namespace
}  // namespace agar::daemon
