#include "daemon/server.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "api/json.hpp"
#include "client/report.hpp"

namespace agar::daemon {
namespace {

// Self-pipe write end for the SIGHUP handler. Signal dispositions are
// process-wide, so this cannot live inside a Server instance; only the
// async-signal-safe write(2) happens in the handler.
std::atomic<int> g_sighup_pipe_fd{-1};  // agar-lint: global-ok(signal handler state is process-wide by nature of signal(2))

extern "C" void on_sighup(int) {
  const int fd = g_sighup_pipe_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'H';
    // The return value is unusable in a signal handler; a full pipe just
    // coalesces reload requests.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

int uds_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  return fd;
}

/// A non-blocking listener on `path`. A socket file that refuses a connect
/// is left over from a daemon that died and is replaced; a path that a
/// running daemon serves is not taken over.
int bind_uds(const std::string& path) {
  const sockaddr_un addr = uds_address(path);
  const auto* address = reinterpret_cast<const sockaddr*>(&addr);
  const int probe = uds_socket();
  // EAGAIN: the listener's backlog is full, so it is live too.
  const bool live =
      ::connect(probe, address, sizeof(addr)) == 0 || errno == EAGAIN;
  ::close(probe);
  if (live) {
    throw std::runtime_error("'" + path + "' is served by a running daemon");
  }
  const int fd = uds_socket();
  ::unlink(path.c_str());
  if (::bind(fd, address, sizeof(addr)) < 0 || ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind/listen '" + path + "': " + err);
  }
  return fd;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Server::Server(DaemonConfig config, ServerOptions options)
    : config_(std::move(config)), options_(std::move(options)) {
  uds_path_ = options_.listen_override.empty() ? config_.listen
                                               : options_.listen_override;
}

Server::~Server() { stop(); }

Server::RouteTable Server::build_table(const DaemonConfig& config,
                                       RouteTable& previous,
                                       std::size_t* kept_out) {
  const std::size_t none = previous.rules.size();
  std::vector<std::size_t> kept_from(config.routes.size(), none);
  RouteTable next;
  next.rules = config.routes;
  next.instances.resize(config.routes.size());
  for (std::size_t i = 0; i < config.routes.size(); ++i) {
    const RouteRule& rule = config.routes[i];
    // Identity match keeps the warm instance: cache contents, control
    // plane and virtual clock survive the reload.
    for (std::size_t j = 0; j < previous.rules.size(); ++j) {
      const RouteRule& old = previous.rules[j];
      if (old.name == rule.name && old.tag == rule.tag &&
          old.prefix == rule.prefix && old.spec_json == rule.spec_json) {
        kept_from[i] = j;
        break;
      }
    }
    if (kept_from[i] == none) {
      next.instances[i] = std::make_unique<ServiceInstance>(rule);
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < kept_from.size(); ++i) {
    if (kept_from[i] == none) continue;
    next.instances[i] = std::move(previous.instances[kept_from[i]]);
    ++kept;
  }
  if (kept_out != nullptr) *kept_out = kept;
  return next;
}

void Server::start() {
  if (serve_thread_.joinable()) return;
  table_ = build_table(config_, table_, nullptr);

  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  listen_fd_ = bind_uds(uds_path_);
  if (options_.install_sighup) {
    g_sighup_pipe_fd.store(wake_pipe_[1], std::memory_order_relaxed);
    struct sigaction action{};
    action.sa_handler = on_sighup;
    ::sigaction(SIGHUP, &action, nullptr);
  }
  serve_thread_ = std::thread([this] { serve(); });
}

void Server::serve() {
  // False while accept() fails for want of descriptors. The listener then
  // stays readable, so it leaves the poll set (poll skips a negative
  // descriptor) and accept() is retried on a 100 ms timeout instead.
  bool accepting = true;
  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({accepting ? listen_fd_ : -1, POLLIN, 0});
    for (const Connection& conn : conns_) {
      const short events = conn.out.empty() ? POLLIN : POLLOUT;
      fds.push_back({conn.fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), accepting ? -1 : 100) < 0) {
      if (errno == EINTR) continue;
      std::cerr << "agard: poll: " << std::strerror(errno) << "\n";
      return;
    }
    // The wake pipe before the listener: a reload signalled before a
    // client connects has run by the time that client is served.
    if (fds[0].revents != 0) {
      char bytes[64];
      const ssize_t n = ::read(wake_pipe_[0], bytes, sizeof(bytes));
      const std::string_view wake(bytes,
                                  n > 0 ? static_cast<std::size_t>(n) : 0);
      if (wake.find('Q') != std::string_view::npos) return;
      if (wake.find('H') != std::string_view::npos) {
        // No reply channel for a signal: a rejected config is reported on
        // stderr, and the old table keeps serving.
        try {
          (void)reload("");
        } catch (const std::exception& e) {
          std::cerr << "agard: SIGHUP reload failed (old config stays): "
                    << e.what() << "\n";
        }
      }
    }
    if (!accepting || fds[1].revents != 0) accepting = accept_connection();

    bool quit = false;
    // Connections accepted this round are past the end of `fds`.
    for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
      if (fds[i + 2].revents == 0) continue;
      Connection& conn = conns_[i];
      bool open = true;
      try {
        open = (conn.out.empty() ? receive(conn) : flush(conn)) &&
               serve_buffered(conn);
      } catch (const std::exception&) {
        // A request body may be 64 MB: a connection whose buffers cannot
        // be allocated is dropped, and the others keep being served.
        open = false;
      }
      // SHUTDOWN ends the loop once its reply is written or its client
      // has gone.
      quit = quit || (conn.shutdown && (!open || conn.out.empty()));
      if (!open) {
        ::close(conn.fd);
        conn.fd = -1;
        --stats_.active_connections;
      }
    }
    std::erase_if(conns_, [](const Connection& conn) { return conn.fd < 0; });
    if (quit) return;
  }
}

bool Server::accept_connection() {
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
  if (fd < 0) return errno != EMFILE && errno != ENFILE;
  conns_.emplace_back().fd = fd;
  ++stats_.accepted;
  ++stats_.active_connections;
  return true;
}

bool Server::receive(Connection& conn) {
  char bytes[64 * 1024];
  const ssize_t n = ::recv(conn.fd, bytes, sizeof(bytes), 0);
  if (n > 0) conn.in.append(bytes, static_cast<std::size_t>(n));
  return n > 0 || (n < 0 && (errno == EAGAIN || errno == EINTR));
}

bool Server::flush(Connection& conn) {
  while (conn.sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.sent,
                             conn.out.size() - conn.sent, MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    conn.sent += static_cast<std::size_t>(n);
  }
  conn.out.clear();
  conn.sent = 0;
  return true;
}

bool Server::serve_buffered(Connection& conn) {
  while (conn.out.empty() && !conn.shutdown &&
         conn.in.size() >= kHeaderBytes) {
    FrameHeader header;
    try {
      header = decode_header(
          reinterpret_cast<const unsigned char*>(conn.in.data()),
          kHeaderBytes);
    } catch (const ProtocolError&) {
      // Framing is lost — no reply can be trusted to parse. Close.
      ++stats_.protocol_errors;
      return false;
    }
    const std::size_t frame_bytes = kHeaderBytes + header.body_len;
    if (conn.in.size() < frame_bytes) break;
    const std::string body = conn.in.substr(kHeaderBytes, header.body_len);
    conn.in.erase(0, frame_bytes);
    try {
      conn.out = dispatch(header, body);
    } catch (const ProtocolError& e) {
      ++stats_.protocol_errors;
      conn.out = control_reply(header.type, Status::kBadRequest, e.what());
    } catch (const std::exception& e) {
      conn.out = control_reply(header.type, Status::kError, e.what());
    }
    conn.shutdown = header.type == MsgType::kShutdown;
    if (!flush(conn)) return false;
  }
  return true;
}

std::string Server::control_reply(MsgType type, Status status,
                                  const std::string& text) {
  return encode_frame(type, /*is_reply=*/true,
                      encode_control_reply(ControlReply{status, text}));
}

std::string Server::dispatch(const FrameHeader& header,
                             const std::string& body) {
  ++stats_.requests;
  switch (header.type) {
    case MsgType::kGet:
      return handle_get(body);
    case MsgType::kPing:
      return control_reply(header.type, Status::kOk, "pong");
    case MsgType::kMetrics:
      return control_reply(header.type, Status::kOk,
                           metrics_json(body == "results-only"));
    case MsgType::kReload: {
      const std::string summary = reload(body);
      return control_reply(header.type, Status::kOk, summary);
    }
    case MsgType::kRoutes: {
      std::ostringstream out;
      out << "[";
      for (std::size_t i = 0; i < table_.rules.size(); ++i) {
        const RouteRule& rule = table_.rules[i];
        out << (i > 0 ? ",\n " : "") << "{\"name\": \""
            << api::json_escape(rule.name) << "\", \"tag\": \""
            << api::json_escape(rule.tag) << "\", \"prefix\": \""
            << api::json_escape(rule.prefix) << "\", \"system\": \""
            << api::json_escape(rule.spec.system) << "\", \"label\": \""
            << api::json_escape(rule.spec.label()) << "\", \"ops\": "
            << table_.instances[i]->ops_served() << "}";
      }
      out << "]\n";
      return control_reply(header.type, Status::kOk, out.str());
    }
    case MsgType::kDrain: {
      for (const auto& instance : table_.instances) instance->drain();
      return control_reply(header.type, Status::kOk, "drained");
    }
    case MsgType::kRepair: {
      std::ostringstream out;
      out << "[";
      bool any = false;
      for (std::size_t i = 0; i < table_.rules.size(); ++i) {
        if (!body.empty() && table_.rules[i].name != body) continue;
        const store::RepairReport report = table_.instances[i]->repair();
        out << (any ? ",\n " : "") << "{\"name\": \""
            << api::json_escape(table_.rules[i].name)
            << "\", \"objects_scanned\": " << report.objects_scanned
            << ", \"objects_damaged\": " << report.objects_damaged
            << ", \"objects_repaired\": " << report.objects_repaired
            << ", \"objects_unrecoverable\": " << report.objects_unrecoverable
            << ", \"chunks_rebuilt\": " << report.chunks_rebuilt << "}";
        any = true;
      }
      out << "]\n";
      if (!body.empty() && !any) {
        return control_reply(header.type, Status::kBadRequest,
                             "no route named '" + body + "'");
      }
      return control_reply(header.type, Status::kOk, out.str());
    }
    case MsgType::kSpecOf: {
      for (const RouteRule& rule : table_.rules) {
        if (rule.name == body) {
          return control_reply(header.type, Status::kOk, rule.spec_json);
        }
      }
      return control_reply(header.type, Status::kBadRequest,
                           "no route named '" + body + "'");
    }
    case MsgType::kShutdown:
      return control_reply(header.type, Status::kOk, "shutting down");
  }
  throw ProtocolError("unhandled message type");
}

std::string Server::handle_get(const std::string& body) {
  const GetRequest request = decode_get_request(body);  // throws ProtocolError
  const std::uint64_t t0 = now_us();
  ++stats_.gets;
  GetResponse response;
  const std::optional<std::size_t> route =
      match_route(table_.rules, request.tag, request.key);
  if (!route.has_value()) {
    response.status = Status::kNoRoute;
    ++stats_.no_route;
  } else {
    response = table_.instances[*route]->serve_get(request.key,
                                                   request.want_payload);
    response.route = static_cast<std::uint32_t>(*route);
    if (response.status == Status::kUnknownKey) {
      ++stats_.unknown_key;
    } else if (response.status == Status::kFailedRead) {
      ++stats_.failed_reads;
    }
  }
  response.wall_us = now_us() - t0;
  return encode_frame(MsgType::kGet, /*is_reply=*/true,
                      encode_get_response(response));
}

std::string Server::reload(const std::string& path) {
  const std::string effective = path.empty() ? options_.config_path : path;
  if (effective.empty()) {
    throw std::invalid_argument(
        "reload: no config path (daemon was started without one)");
  }
  const DaemonConfig next_config = load_daemon_config(effective);
  std::size_t kept = 0;
  table_ = build_table(next_config, table_, &kept);
  config_.routes = next_config.routes;
  ++stats_.reloads;
  std::ostringstream summary;
  summary << table_.rules.size() << " routes: " << kept << " kept, "
          << (table_.rules.size() - kept) << " new";
  return summary.str();
}

std::string Server::metrics_json(bool results_only) {
  std::vector<client::ExperimentResult> results;
  results.reserve(table_.rules.size());
  for (std::size_t i = 0; i < table_.rules.size(); ++i) {
    client::ExperimentResult result;
    result.label = table_.rules[i].spec.label();
    result.runs.push_back(table_.instances[i]->snapshot());
    results.push_back(std::move(result));
  }
  const std::string results_array = client::results_json(results);
  if (results_only) return results_array;

  std::ostringstream out;
  out << "{\n  \"daemon\": {\n"
      << "    \"accepted\": " << stats_.accepted << ",\n"
      << "    \"active_connections\": " << stats_.active_connections << ",\n"
      << "    \"requests\": " << stats_.requests << ",\n"
      << "    \"gets\": " << stats_.gets << ",\n"
      << "    \"no_route\": " << stats_.no_route << ",\n"
      << "    \"unknown_key\": " << stats_.unknown_key << ",\n"
      << "    \"failed_reads\": " << stats_.failed_reads << ",\n"
      << "    \"protocol_errors\": " << stats_.protocol_errors << ",\n"
      << "    \"reloads\": " << stats_.reloads << ",\n"
      << "    \"routes\": " << table_.rules.size() << "\n  },\n"
      << "  \"results\": " << results_array << "\n}\n";
  return out.str();
}

void Server::wait() {
  if (serve_thread_.joinable()) serve_thread_.join();
  stop();
}

void Server::stop() {
  if (serve_thread_.joinable()) {
    const char byte = 'Q';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
    serve_thread_.join();
  }
  if (wake_pipe_[1] >= 0 && g_sighup_pipe_fd.load() == wake_pipe_[1]) {
    g_sighup_pipe_fd.store(-1, std::memory_order_relaxed);
    ::signal(SIGHUP, SIG_DFL);
  }
  for (const Connection& conn : conns_) ::close(conn.fd);
  conns_.clear();
  // Unlink before the listener closes: from then on a starting daemon may
  // take the path over, and a later unlink would remove its socket.
  if (listen_fd_ >= 0) ::unlink(uds_path_.c_str());
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

}  // namespace agar::daemon
