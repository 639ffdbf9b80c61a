#include "daemon/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace agar::daemon {
namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Bounds-checked little-endian reader over a body string. Any read past
/// the end is a truncated body -> ProtocolError.
class Reader {
 public:
  explicit Reader(const std::string& body) : body_(body) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(body_[pos_++]);
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        static_cast<unsigned char>(body_[pos_]) |
        (static_cast<unsigned char>(body_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    need(4);
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(body_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    need(8);
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(body_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() {
    std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string bytes(std::size_t n) {
    need(n);
    std::string v = body_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  std::string str16() { return bytes(u16()); }
  std::string str32() {
    std::uint32_t n = u32();
    if (n > kMaxBodyBytes) {
      throw ProtocolError("embedded length exceeds frame limit");
    }
    return bytes(n);
  }

  /// Everything not yet consumed (control-reply text).
  std::string rest() { return body_.substr(pos_); }

  void expect_end() const {
    if (pos_ != body_.size()) {
      throw ProtocolError("trailing bytes after message body");
    }
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > body_.size()) {
      throw ProtocolError("truncated message body");
    }
  }

  const std::string& body_;
  std::size_t pos_ = 0;
};

Status decode_status(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(Status::kShuttingDown)) {
    throw ProtocolError("unknown status byte");
  }
  return static_cast<Status>(raw);
}

}  // namespace

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kFailedRead:
      return "failed_read";
    case Status::kNoRoute:
      return "no_route";
    case Status::kUnknownKey:
      return "unknown_key";
    case Status::kBadRequest:
      return "bad_request";
    case Status::kError:
      return "error";
    case Status::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

std::string encode_frame(MsgType type, bool is_reply, const std::string& body) {
  if (body.size() > kMaxBodyBytes) {
    throw ProtocolError("frame body exceeds kMaxBodyBytes");
  }
  std::string out;
  out.reserve(kHeaderBytes + body.size());
  put_u32(out, kMagic);
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(type) |
                                  (is_reply ? kReplyBit : 0)));
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  out += body;
  return out;
}

FrameHeader decode_header(const unsigned char* bytes, std::size_t len) {
  if (len < kHeaderBytes) {
    throw ProtocolError("short frame header");
  }
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
  }
  if (magic != kMagic) {
    throw ProtocolError("bad frame magic");
  }
  if (bytes[4] != kVersion) {
    throw ProtocolError("unsupported protocol version");
  }
  std::uint8_t raw_type = bytes[5];
  bool is_reply = (raw_type & kReplyBit) != 0;
  raw_type = static_cast<std::uint8_t>(raw_type & ~kReplyBit);
  if (raw_type < static_cast<std::uint8_t>(MsgType::kGet) ||
      raw_type > static_cast<std::uint8_t>(MsgType::kSpecOf)) {
    throw ProtocolError("unknown message type");
  }
  if (bytes[6] != 0 || bytes[7] != 0) {
    throw ProtocolError("nonzero reserved header bits");
  }
  std::uint32_t body_len = 0;
  for (int i = 0; i < 4; ++i) {
    body_len |= static_cast<std::uint32_t>(bytes[8 + i]) << (8 * i);
  }
  if (body_len > kMaxBodyBytes) {
    throw ProtocolError("frame body length exceeds limit");
  }
  FrameHeader header;
  header.type = static_cast<MsgType>(raw_type);
  header.is_reply = is_reply;
  header.body_len = body_len;
  return header;
}

std::string encode_get_request(const GetRequest& request) {
  if (request.tag.size() > 0xFFFF || request.key.size() > 0xFFFF) {
    throw ProtocolError("tag/key too long");
  }
  std::string out;
  put_u16(out, static_cast<std::uint16_t>(request.tag.size()));
  out += request.tag;
  put_u16(out, static_cast<std::uint16_t>(request.key.size()));
  out += request.key;
  out.push_back(request.want_payload ? 1 : 0);
  return out;
}

GetRequest decode_get_request(const std::string& body) {
  Reader reader(body);
  GetRequest request;
  request.tag = reader.str16();
  request.key = reader.str16();
  request.want_payload = reader.u8() != 0;
  reader.expect_end();
  if (request.key.empty()) {
    throw ProtocolError("empty key in GET request");
  }
  return request;
}

std::string encode_get_response(const GetResponse& response) {
  std::string out;
  out.push_back(static_cast<char>(response.status));
  out.push_back(static_cast<char>(response.hit));
  out.push_back(response.degraded ? 1 : 0);
  put_u32(out, response.route);
  put_f64(out, response.virtual_ms);
  put_u64(out, response.wall_us);
  put_u32(out, static_cast<std::uint32_t>(response.payload.size()));
  out += response.payload;
  return out;
}

GetResponse decode_get_response(const std::string& body) {
  Reader reader(body);
  GetResponse response;
  response.status = decode_status(reader.u8());
  std::uint8_t hit = reader.u8();
  if (hit > static_cast<std::uint8_t>(HitKind::kFull)) {
    throw ProtocolError("unknown hit kind");
  }
  response.hit = static_cast<HitKind>(hit);
  response.degraded = reader.u8() != 0;
  response.route = reader.u32();
  response.virtual_ms = reader.f64();
  response.wall_us = reader.u64();
  response.payload = reader.str32();
  reader.expect_end();
  return response;
}

std::string encode_control_reply(const ControlReply& reply) {
  std::string out;
  out.push_back(static_cast<char>(reply.status));
  out += reply.text;
  return out;
}

ControlReply decode_control_reply(const std::string& body) {
  Reader reader(body);
  ControlReply reply;
  reply.status = decode_status(reader.u8());
  reply.text = reader.rest();
  return reply;
}

bool read_exact(int fd, unsigned char* out, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, out + got, len - got);
    if (n == 0) {
      if (got == 0) return false;
      throw ProtocolError("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("read: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

sockaddr_un uds_address(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("UDS path empty or too long: '" + path + "'");
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

}  // namespace agar::daemon
