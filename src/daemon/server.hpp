// The agard server: one serving thread polls the wake pipe, the
// Unix-domain listener and every connection, and serves each request on
// the routing table's warm ServiceInstances. No state is shared between
// threads, so nothing is locked.
//
// Each connection keeps the bytes its client has sent and the reply it is
// owed. Sockets are non-blocking and replies go out with MSG_NOSIGNAL, so
// a client that hangs up costs only its connection. No request is read
// from a connection until its previous reply has been written in full: a
// client that stops reading stops only itself, and replies come back in
// request order.
//
// Reload semantics (SIGHUP or the RELOAD control command): the new config
// is parsed and validated first; rules whose identity
// (name/tag/prefix/spec) is unchanged keep their warm instance — cache
// contents, control-plane state and virtual clock intact — while changed
// or new rules get fresh instances. A reload runs between two requests, so
// serving pauses while the new instances are built, and no admitted
// request is dropped or rerouted; a failed parse leaves the old table
// serving.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/protocol.hpp"
#include "daemon/routing.hpp"
#include "daemon/service.hpp"

namespace agar::daemon {

struct ServerOptions {
  /// Routing config path — kept for SIGHUP / argument-less RELOAD.
  std::string config_path;
  /// Overrides the config's "listen" UDS path when non-empty.
  std::string listen_override;
  /// Install the SIGHUP -> reload handler (a process-wide action; tests
  /// that run several servers in one process leave it off and reload via
  /// the control command instead).
  bool install_sighup = false;
};

/// Daemon-level counters (everything results_json cannot know about).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t active_connections = 0;
  std::uint64_t requests = 0;        ///< frames dispatched, all types
  std::uint64_t gets = 0;
  std::uint64_t no_route = 0;
  std::uint64_t unknown_key = 0;
  std::uint64_t failed_reads = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t reloads = 0;
};

/// Call start(), wait() and stop() from the thread that owns the Server.
class Server {
 public:
  Server(DaemonConfig config, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Build the routes, bind the listener and start the serving thread.
  /// Throws std::runtime_error when the socket cannot be bound, including
  /// when a running daemon already serves its path.
  void start();

  /// Block until a SHUTDOWN command (or stop()) ends the serve loop.
  void wait();

  /// Stop serving: ends the serve loop, closes every connection and the
  /// listener, and removes the socket this server bound. Idempotent.
  void stop();

  [[nodiscard]] const std::string& socket_path() const { return uds_path_; }

  /// Write end of the wake pipe: writing 'Q' stops the serve loop, 'H'
  /// triggers a reload. The async-signal-safe stop channel for callers
  /// that install their own SIGTERM/SIGINT handlers (agard's main).
  [[nodiscard]] int stop_fd() const { return wake_pipe_[1]; }

 private:
  struct RouteTable {
    std::vector<RouteRule> rules;
    std::vector<std::unique_ptr<ServiceInstance>> instances;
  };

  /// One client connection of the serve loop.
  struct Connection {
    int fd = -1;
    std::string in;         ///< received bytes not yet served
    std::string out;        ///< the reply being written
    std::size_t sent = 0;   ///< bytes of `out` already written
    bool shutdown = false;  ///< `out` answers SHUTDOWN
  };

  /// The table for `config`. Rules whose identity is unchanged take their
  /// instance out of `previous`, but only once every new instance is
  /// built, so a constructor that throws leaves `previous` whole.
  [[nodiscard]] static RouteTable build_table(const DaemonConfig& config,
                                              RouteTable& previous,
                                              std::size_t* kept_out);

  void serve();
  /// Accept one pending connection; false while the process is out of
  /// descriptors.
  [[nodiscard]] bool accept_connection();
  /// Read what the client sent; false when the connection is finished.
  [[nodiscard]] bool receive(Connection& conn);
  /// Write what is left of the reply; false when the client is gone.
  [[nodiscard]] bool flush(Connection& conn);
  /// Serve the complete requests buffered on `conn` for as long as each
  /// reply is written in full; false when the connection must close.
  [[nodiscard]] bool serve_buffered(Connection& conn);
  /// Dispatch one decoded frame; returns the reply frame.
  [[nodiscard]] std::string dispatch(const FrameHeader& header,
                                     const std::string& body);
  [[nodiscard]] std::string handle_get(const std::string& body);
  [[nodiscard]] std::string control_reply(MsgType type, Status status,
                                          const std::string& text);

  /// Apply a new routing config (empty path = re-read the start path).
  /// Returns a human-readable summary ("5 routes: 3 kept, 2 new").
  /// Throws std::invalid_argument on a bad config — the old table stays.
  std::string reload(const std::string& path);

  /// The metrics dump. `results_only` emits just the client::results_json
  /// array (what an equivalent in-process run prints), the full form wraps
  /// it with the daemon counters.
  [[nodiscard]] std::string metrics_json(bool results_only);

  DaemonConfig config_;
  ServerOptions options_;
  std::string uds_path_;

  // Touched by start() before the serving thread exists, then by that
  // thread alone, then by stop() once it is joined.
  RouteTable table_;
  ServerStats stats_;
  std::vector<Connection> conns_;
  /// The listener; >= 0 only while this server has uds_path_ bound.
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: signal handlers + stop()
  std::thread serve_thread_;
};

}  // namespace agar::daemon
