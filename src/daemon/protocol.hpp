// agard wire protocol: a small length-prefixed binary framing shared by the
// daemon, the agarctl client and the tests, plus the blocking socket I/O
// of the client end of a Unix-domain connection.
//
// Every message is one frame:
//
//   offset  size  field
//        0     4  magic "AGAR" (0x41474152, little-endian on the wire)
//        4     1  protocol version (kVersion)
//        5     1  message type (MsgType; bit 7 set on replies)
//        6     2  reserved, must be zero
//        8     4  body length in bytes (<= kMaxBodyBytes)
//       12     n  body
//
// All integers are little-endian. Doubles travel as the IEEE-754 bit
// pattern of the value in a u64. A malformed frame (bad magic, unknown
// version, oversized body) is a protocol error: the peer answers with an
// error reply when it still can and closes the connection — it never
// crashes and never guesses at resynchronization.
//
// GET is the data-plane request (tag + key -> status + telemetry +
// optional payload); everything else is a control command whose body is
// UTF-8 text in and UTF-8 JSON out, so new control verbs need no new
// binary encodings.
#pragma once

#include <sys/un.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace agar::daemon {

inline constexpr std::uint32_t kMagic = 0x41474152u;  // "AGAR"
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 12;
/// Upper bound on one frame body: large enough for any object payload the
/// experiments use (<= tens of MB), small enough that a garbage length
/// field cannot drive an allocation bomb.
inline constexpr std::uint32_t kMaxBodyBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  kGet = 1,       ///< data plane: read one object through the routed engine
  kMetrics = 2,   ///< control: JSON metrics dump (body: options text)
  kReload = 3,    ///< control: reload routing config (body: optional path)
  kPing = 4,      ///< control: liveness probe
  kShutdown = 5,  ///< control: graceful shutdown
  kRoutes = 6,    ///< control: JSON routing-table summary
  kDrain = 7,     ///< control: run each route's loop to its window boundary
  kRepair = 8,    ///< control: scan-and-repair a route's backend stripes
  kSpecOf = 9,    ///< control: the ExperimentSpec JSON of one route
};
inline constexpr std::uint8_t kReplyBit = 0x80;

/// Status byte of a reply frame.
enum class Status : std::uint8_t {
  kOk = 0,
  kFailedRead = 1,    ///< read exhausted every fallback (outage semantics)
  kNoRoute = 2,       ///< no routing rule matched the (tag, key)
  kUnknownKey = 3,    ///< route matched but the key is not in its working set
  kBadRequest = 4,    ///< malformed request body
  kError = 5,         ///< internal error (message in body text)
  kShuttingDown = 6,  ///< daemon is draining; retry against a new instance
};

[[nodiscard]] const char* to_string(Status status);

/// Malformed frame or body. The server turns this into an error reply (when
/// a header was readable) and closes; the client surfaces it to the caller.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FrameHeader {
  MsgType type = MsgType::kPing;
  bool is_reply = false;
  std::uint32_t body_len = 0;
};

/// Serialize a frame header + body.
[[nodiscard]] std::string encode_frame(MsgType type, bool is_reply,
                                       const std::string& body);

/// Parse and validate the 12 header bytes. Throws ProtocolError on bad
/// magic, unknown version, nonzero reserved bits, unknown type, or a body
/// length above kMaxBodyBytes.
[[nodiscard]] FrameHeader decode_header(const unsigned char* bytes,
                                        std::size_t len);

// ------------------------------------------------------------------ GET

struct GetRequest {
  std::string tag;   ///< routing tag (halmap-style; may be empty)
  std::string key;   ///< object key
  bool want_payload = false;  ///< return the object bytes, not just telemetry
};

/// How the read was served (mirrors ReadResult's hit classification).
enum class HitKind : std::uint8_t { kMiss = 0, kPartial = 1, kFull = 2 };

struct GetResponse {
  Status status = Status::kOk;
  HitKind hit = HitKind::kMiss;
  bool degraded = false;
  std::uint32_t route = 0;        ///< index of the matched routing rule
  double virtual_ms = 0.0;        ///< simulated read latency
  std::uint64_t wall_us = 0;      ///< wall-clock service time in the daemon
  std::string payload;            ///< object bytes (want_payload && kOk)
};

[[nodiscard]] std::string encode_get_request(const GetRequest& request);
[[nodiscard]] GetRequest decode_get_request(const std::string& body);

[[nodiscard]] std::string encode_get_response(const GetResponse& response);
[[nodiscard]] GetResponse decode_get_response(const std::string& body);

// ------------------------------------------------- control message bodies
// Control replies lead with a status byte; the rest of the body is UTF-8
// text (JSON for metrics/routes/spec dumps, a plain message otherwise).

struct ControlReply {
  Status status = Status::kOk;
  std::string text;
};

[[nodiscard]] std::string encode_control_reply(const ControlReply& reply);
[[nodiscard]] ControlReply decode_control_reply(const std::string& body);

// ------------------------------------------------------------- socket I/O

/// Read exactly `len` bytes from `fd`. Returns false on a clean EOF before
/// the first byte; throws ProtocolError on an EOF mid-frame and
/// std::runtime_error on a read error.
[[nodiscard]] bool read_exact(int fd, unsigned char* out, std::size_t len);

/// Write every byte of `bytes` to the socket `fd`. Throws
/// std::runtime_error on a write error. A peer that has gone is such an
/// error (EPIPE): the send uses MSG_NOSIGNAL, so it raises no SIGPIPE.
void write_all(int fd, const std::string& bytes);

/// The AF_UNIX address of `path`. Throws std::runtime_error when the path
/// is empty or does not fit in sun_path.
[[nodiscard]] sockaddr_un uds_address(const std::string& path);

}  // namespace agar::daemon
