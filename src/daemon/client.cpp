#include "daemon/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace agar::daemon {

DaemonClient DaemonClient::connect_uds(const std::string& path) {
  sockaddr_un addr = uds_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect '" + path + "': " + err);
  }
  return DaemonClient(fd);
}

DaemonClient::DaemonClient(DaemonClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

DaemonClient& DaemonClient::operator=(DaemonClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

DaemonClient::~DaemonClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string DaemonClient::roundtrip(const std::string& frame,
                                    MsgType expect_type) {
  write_all(fd_, frame);
  unsigned char header_bytes[kHeaderBytes];
  if (!read_exact(fd_, header_bytes, kHeaderBytes)) {
    throw std::runtime_error("daemon closed the connection");
  }
  const FrameHeader header = decode_header(header_bytes, kHeaderBytes);
  if (!header.is_reply || header.type != expect_type) {
    throw ProtocolError("unexpected reply frame type");
  }
  std::string body(header.body_len, '\0');
  if (header.body_len > 0 &&
      !read_exact(fd_, reinterpret_cast<unsigned char*>(body.data()),
                  body.size())) {
    throw std::runtime_error("daemon closed the connection");
  }
  return body;
}

GetResponse DaemonClient::get(const std::string& tag, const std::string& key,
                              bool want_payload) {
  const std::string frame =
      encode_frame(MsgType::kGet, /*is_reply=*/false,
                   encode_get_request(GetRequest{tag, key, want_payload}));
  return decode_get_response(roundtrip(frame, MsgType::kGet));
}

ControlReply DaemonClient::control(MsgType type, const std::string& body) {
  const std::string frame = encode_frame(type, /*is_reply=*/false, body);
  return decode_control_reply(roundtrip(frame, type));
}

ControlReply DaemonClient::ping() { return control(MsgType::kPing, ""); }

ControlReply DaemonClient::metrics(bool results_only) {
  return control(MsgType::kMetrics, results_only ? "results-only" : "");
}

ControlReply DaemonClient::reload(const std::string& path) {
  return control(MsgType::kReload, path);
}

ControlReply DaemonClient::routes() { return control(MsgType::kRoutes, ""); }

ControlReply DaemonClient::drain() { return control(MsgType::kDrain, ""); }

ControlReply DaemonClient::repair(const std::string& route) {
  return control(MsgType::kRepair, route);
}

ControlReply DaemonClient::spec_of(const std::string& route) {
  return control(MsgType::kSpecOf, route);
}

ControlReply DaemonClient::shutdown() {
  return control(MsgType::kShutdown, "");
}

}  // namespace agar::daemon
