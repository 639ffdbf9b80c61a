// The agard server: a poll-driven accept loop on a Unix-domain socket,
// one connection thread per client, and a shared routing table of warm
// ServiceInstances swapped atomically on reload.
//
// Reload semantics (SIGHUP or the RELOAD control command): the new config
// is parsed and validated off to the side; rules whose identity
// (name/tag/prefix/spec) is unchanged keep their warm instance — cache
// contents, control-plane state and virtual clock intact — while changed
// or new rules get fresh instances. The table pointer is then swapped
// under the lock. In-flight requests hold a shared_ptr to the table they
// matched against, so a reload never drops or reroutes a request that has
// already been admitted; a failed parse leaves the old table serving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
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

class Server {
 public:
  Server(DaemonConfig config, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listener and start the accept thread. Throws
  /// std::runtime_error on bind failure.
  void start();

  /// Block until a SHUTDOWN command (or stop()) ends the serve loop.
  void wait();

  /// Stop serving: closes the listener, shuts down live connections, joins
  /// every thread. Idempotent.
  void stop();

  /// Apply a new routing config (empty path = re-read the start path).
  /// Returns a human-readable summary ("5 routes: 3 kept, 2 new").
  /// Throws std::invalid_argument on a bad config — the old table stays.
  std::string reload(const std::string& path);

  /// The metrics dump. `results_only` emits just the client::results_json
  /// array (what an equivalent in-process run prints), the full form wraps
  /// it with the daemon counters.
  [[nodiscard]] std::string metrics_json(bool results_only);

  [[nodiscard]] const std::string& socket_path() const { return uds_path_; }

  /// Write end of the wake pipe: writing 'Q' stops the serve loop, 'H'
  /// triggers a reload. The async-signal-safe stop channel for callers
  /// that install their own SIGTERM/SIGINT handlers (agard's main).
  [[nodiscard]] int stop_fd() const { return wake_pipe_[1]; }

 private:
  struct RouteTable {
    std::vector<RouteRule> rules;
    std::vector<std::shared_ptr<ServiceInstance>> instances;
  };

  [[nodiscard]] std::shared_ptr<const RouteTable> table();
  [[nodiscard]] static std::shared_ptr<RouteTable> build_table(
      const DaemonConfig& config, const RouteTable* previous,
      std::size_t* kept_out);

  void accept_loop();
  /// Join the connection threads that have finished serving.
  void reap_connections();
  void handle_connection(int fd, std::uint64_t id);
  /// Dispatch one decoded frame; returns the reply frame.
  [[nodiscard]] std::string dispatch(const FrameHeader& header,
                                     const std::string& body);
  [[nodiscard]] std::string handle_get(const std::string& body);
  [[nodiscard]] std::string control_reply(MsgType type, Status status,
                                          const std::string& text);
  void request_stop();

  DaemonConfig config_;
  ServerOptions options_;
  std::string uds_path_;

  std::mutex mutex_;  ///< guards table_, stats_, conn_fds_, finished_conns_
  std::shared_ptr<const RouteTable> table_;
  ServerStats stats_;
  std::set<int> conn_fds_;
  /// Ids of connection threads that have returned from serving and wait to
  /// be joined.
  std::vector<std::uint64_t> finished_conns_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: signal handler + stop()
  std::thread accept_thread_;
  /// Connection threads by id. Only the accept thread touches this while
  /// serving, and stop() once that thread is joined.
  std::map<std::uint64_t, std::thread> conn_threads_;
  std::condition_variable stopped_cv_;
  std::mutex stopped_mutex_;
  bool stopped_ = false;
};

}  // namespace agar::daemon
