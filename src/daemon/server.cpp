#include "daemon/server.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

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

int bind_uds(const std::string& path) {
  sockaddr_un addr = uds_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // a stale socket from a crashed daemon
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
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

std::shared_ptr<const Server::RouteTable> Server::table() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return table_;
}

std::shared_ptr<Server::RouteTable> Server::build_table(
    const DaemonConfig& config, const RouteTable* previous,
    std::size_t* kept_out) {
  auto next = std::make_shared<RouteTable>();
  next->rules = config.routes;
  next->instances.reserve(config.routes.size());
  std::size_t kept = 0;
  for (const RouteRule& rule : config.routes) {
    std::shared_ptr<ServiceInstance> instance;
    if (previous != nullptr) {
      // Identity match keeps the warm instance: cache contents, control
      // plane and virtual clock survive the reload.
      for (std::size_t i = 0; i < previous->rules.size(); ++i) {
        const RouteRule& old = previous->rules[i];
        if (old.name == rule.name && old.tag == rule.tag &&
            old.prefix == rule.prefix && old.spec_json == rule.spec_json) {
          instance = previous->instances[i];
          ++kept;
          break;
        }
      }
    }
    if (instance == nullptr) {
      instance = std::make_shared<ServiceInstance>(rule);
    }
    next->instances.push_back(std::move(instance));
  }
  if (kept_out != nullptr) *kept_out = kept;
  return next;
}

void Server::start() {
  if (running_.load()) return;
  table_ = build_table(config_, nullptr, nullptr);

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

  running_.store(true);
  stopped_ = false;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (running_.load()) {
    pollfd fds[2] = {{wake_pipe_[0], POLLIN, 0}, {listen_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char bytes[64];
      const ssize_t n = ::read(wake_pipe_[0], bytes, sizeof(bytes));
      bool hup = false;
      bool quit = false;
      for (ssize_t i = 0; i < n; ++i) {
        hup = hup || bytes[i] == 'H';
        quit = quit || bytes[i] == 'Q';
      }
      if (quit) request_stop();
      if (!running_.load()) break;
      if (hup) {
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
    if ((fds[1].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // A finished thread keeps its stack until joined: join them before
    // starting the next, so a long-lived daemon holds one stack per live
    // connection rather than one per connection ever accepted.
    reap_connections();
    std::uint64_t id = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      id = ++stats_.accepted;
      ++stats_.active_connections;
      conn_fds_.insert(fd);
    }
    conn_threads_.emplace(
        id, std::thread([this, fd, id] { handle_connection(fd, id); }));
  }
}

void Server::reap_connections() {
  std::vector<std::uint64_t> finished;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    finished.swap(finished_conns_);
  }
  for (const std::uint64_t id : finished) {
    const auto it = conn_threads_.find(id);
    it->second.join();
    conn_threads_.erase(it);
  }
}

void Server::handle_connection(int fd, std::uint64_t id) {
  bool want_stop = false;
  try {
    while (running_.load()) {
      unsigned char header_bytes[kHeaderBytes];
      if (!read_exact(fd, header_bytes, kHeaderBytes)) break;  // clean EOF
      FrameHeader header;
      try {
        header = decode_header(header_bytes, kHeaderBytes);
      } catch (const ProtocolError&) {
        // Framing is lost — no reply can be trusted to parse. Close.
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.protocol_errors;
        break;
      }
      std::string body(header.body_len, '\0');
      if (header.body_len > 0 &&
          !read_exact(fd, reinterpret_cast<unsigned char*>(body.data()),
                      body.size())) {
        break;
      }

      std::string reply;
      try {
        reply = dispatch(header, body);
      } catch (const ProtocolError& e) {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.protocol_errors;
        }
        reply = control_reply(header.type, Status::kBadRequest, e.what());
      } catch (const std::exception& e) {
        reply = control_reply(header.type, Status::kError, e.what());
      }
      write_all(fd, reply);
      if (header.type == MsgType::kShutdown) {
        want_stop = true;
        break;
      }
    }
  } catch (const std::exception&) {
    // Torn connection (reset mid-frame, write to a closed peer): drop it.
  }
  {
    // Out of conn_fds_ before the close, so stop() never shuts down a
    // descriptor number the process has already reused.
    const std::lock_guard<std::mutex> lock(mutex_);
    conn_fds_.erase(fd);
    --stats_.active_connections;
    finished_conns_.push_back(id);
  }
  ::close(fd);
  if (want_stop) request_stop();
}

std::string Server::control_reply(MsgType type, Status status,
                                  const std::string& text) {
  return encode_frame(type, /*is_reply=*/true,
                      encode_control_reply(ControlReply{status, text}));
}

std::string Server::dispatch(const FrameHeader& header,
                             const std::string& body) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
  }
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
      const auto t = table();
      std::ostringstream out;
      out << "[";
      for (std::size_t i = 0; i < t->rules.size(); ++i) {
        const RouteRule& rule = t->rules[i];
        out << (i > 0 ? ",\n " : "") << "{\"name\": \""
            << api::json_escape(rule.name) << "\", \"tag\": \""
            << api::json_escape(rule.tag) << "\", \"prefix\": \""
            << api::json_escape(rule.prefix) << "\", \"system\": \""
            << api::json_escape(rule.spec.system) << "\", \"label\": \""
            << api::json_escape(rule.spec.label()) << "\", \"ops\": "
            << t->instances[i]->ops_served() << "}";
      }
      out << "]\n";
      return control_reply(header.type, Status::kOk, out.str());
    }
    case MsgType::kDrain: {
      const auto t = table();
      for (const auto& instance : t->instances) instance->drain();
      return control_reply(header.type, Status::kOk, "drained");
    }
    case MsgType::kRepair: {
      const auto t = table();
      std::ostringstream out;
      out << "[";
      bool any = false;
      for (std::size_t i = 0; i < t->rules.size(); ++i) {
        if (!body.empty() && t->rules[i].name != body) continue;
        const store::RepairReport report = t->instances[i]->repair();
        out << (any ? ",\n " : "") << "{\"name\": \""
            << api::json_escape(t->rules[i].name)
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
      const auto t = table();
      for (const RouteRule& rule : t->rules) {
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
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.gets;
  }
  GetResponse response;
  const auto t = table();
  const std::optional<std::size_t> route =
      match_route(t->rules, request.tag, request.key);
  if (!route.has_value()) {
    response.status = Status::kNoRoute;
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.no_route;
  } else {
    // The shared_ptr keeps the instance alive across a concurrent reload:
    // an admitted request always completes against the table it matched.
    response = t->instances[*route]->serve_get(request.key,
                                               request.want_payload);
    response.route = static_cast<std::uint32_t>(*route);
    if (response.status == Status::kUnknownKey) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.unknown_key;
    } else if (response.status == Status::kFailedRead) {
      const std::lock_guard<std::mutex> lock(mutex_);
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
  const auto previous = table();
  std::size_t kept = 0;
  // Built outside the lock: instance construction (deployment + warm-up)
  // is slow, and in-flight requests keep serving the old table meanwhile.
  auto next = build_table(next_config, previous.get(), &kept);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    table_ = next;
    config_.routes = next_config.routes;
    ++stats_.reloads;
  }
  std::ostringstream summary;
  summary << next->rules.size() << " routes: " << kept << " kept, "
          << (next->rules.size() - kept) << " new";
  return summary.str();
}

std::string Server::metrics_json(bool results_only) {
  const auto t = table();
  std::vector<client::ExperimentResult> results;
  results.reserve(t->rules.size());
  for (std::size_t i = 0; i < t->rules.size(); ++i) {
    client::ExperimentResult result;
    result.label = t->rules[i].spec.label();
    result.runs.push_back(t->instances[i]->snapshot());
    results.push_back(std::move(result));
  }
  const std::string results_array = client::results_json(results);
  if (results_only) return results_array;

  ServerStats stats;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
  }
  std::ostringstream out;
  out << "{\n  \"daemon\": {\n"
      << "    \"accepted\": " << stats.accepted << ",\n"
      << "    \"active_connections\": " << stats.active_connections << ",\n"
      << "    \"requests\": " << stats.requests << ",\n"
      << "    \"gets\": " << stats.gets << ",\n"
      << "    \"no_route\": " << stats.no_route << ",\n"
      << "    \"unknown_key\": " << stats.unknown_key << ",\n"
      << "    \"failed_reads\": " << stats.failed_reads << ",\n"
      << "    \"protocol_errors\": " << stats.protocol_errors << ",\n"
      << "    \"reloads\": " << stats.reloads << ",\n"
      << "    \"routes\": " << t->rules.size() << "\n  },\n"
      << "  \"results\": " << results_array << "\n}\n";
  return out.str();
}

void Server::request_stop() {
  running_.store(false);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'Q';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  {
    const std::lock_guard<std::mutex> lock(stopped_mutex_);
    stopped_cv_.notify_all();
  }
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(stopped_mutex_);
    stopped_cv_.wait(lock, [this] { return !running_.load(); });
  }
  stop();
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(stopped_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  request_stop();
  if (options_.install_sighup) {
    g_sighup_pipe_fd.store(-1, std::memory_order_relaxed);
    ::signal(SIGHUP, SIG_DFL);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Unblock connection threads parked in read().
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& entry : conn_threads_) entry.second.join();
  conn_threads_.clear();
  finished_conns_.clear();
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  if (!uds_path_.empty()) ::unlink(uds_path_.c_str());
}

}  // namespace agar::daemon
