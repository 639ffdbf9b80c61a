// Client side of the agard protocol: one blocking connection, one
// request/reply in flight at a time. Shared by agarctl, the daemon tests
// and the benchmark's daemon load so the wire encoding lives in exactly one
// place.
#pragma once

#include <string>

#include "daemon/protocol.hpp"

namespace agar::daemon {

class DaemonClient {
 public:
  /// Connect to a Unix-domain socket. Throws std::runtime_error.
  static DaemonClient connect_uds(const std::string& path);

  DaemonClient(DaemonClient&& other) noexcept;
  DaemonClient& operator=(DaemonClient&& other) noexcept;
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;
  ~DaemonClient();

  /// One routed read. Throws on transport/protocol failure; a routing or
  /// read failure comes back in the response status.
  [[nodiscard]] GetResponse get(const std::string& tag, const std::string& key,
                                bool want_payload = false);

  /// Control commands; each returns the reply (status + text). Throws on
  /// transport/protocol failure only.
  [[nodiscard]] ControlReply ping();
  [[nodiscard]] ControlReply metrics(bool results_only = false);
  [[nodiscard]] ControlReply reload(const std::string& path = "");
  [[nodiscard]] ControlReply routes();
  [[nodiscard]] ControlReply drain();
  [[nodiscard]] ControlReply repair(const std::string& route = "");
  [[nodiscard]] ControlReply spec_of(const std::string& route);
  [[nodiscard]] ControlReply shutdown();

  /// Raw frame exchange (protocol tests drive malformed frames with it).
  [[nodiscard]] std::string roundtrip(const std::string& frame,
                                      MsgType expect_type);

 private:
  explicit DaemonClient(int fd) : fd_(fd) {}
  [[nodiscard]] ControlReply control(MsgType type, const std::string& body);

  int fd_ = -1;
};

}  // namespace agar::daemon
