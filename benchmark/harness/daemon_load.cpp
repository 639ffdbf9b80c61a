// The daemon layer: agard runs as its own process and serves the routing
// config over a Unix socket; this process is the load generator.
//
// Two connections, one blocking request in flight on each, driven by one
// thread per connection: a closed-loop phase (warm-up, then measured) and
// an open-loop phase whose Poisson schedule is fixed before it starts.
// Every open-loop request is timed from its due time, so a stall also
// counts against the requests queued behind it.
#include "daemon_load.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/bytes.hpp"
#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/routing.hpp"
#include "daemon/service.hpp"

extern char** environ;

namespace bench {
namespace {

using namespace agar;

/// splitmix64 — the benchmark's own generator, so its inputs do not move
/// when the program's RNG or workload code changes.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Request {
  std::uint32_t key = 0;
  bool tagged = false;  ///< tagged: telemetry-only; untagged: wants payload
};

std::vector<Request> make_stream(std::size_t n, std::uint64_t seed,
                                 const DaemonOptions& o) {
  std::vector<double> cdf(o.keys);
  double acc = 0.0;
  for (std::size_t r = 0; r < o.keys; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), o.zipf);
    cdf[r] = acc;
  }
  for (double& c : cdf) c /= acc;
  SplitMix rng(seed);
  std::vector<Request> out(n);
  for (Request& r : out) {
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), rng.uniform());
    r.key = static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cdf.begin(), o.keys - 1));
    r.tagged = rng.uniform() < o.tag_share;
  }
  return out;
}

/// Poisson arrival offsets (seconds from phase start) at `rate` per second.
std::vector<double> make_schedule(double rate, double seconds,
                                  std::uint64_t seed) {
  SplitMix rng(seed);
  std::vector<double> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

void wait_until(double due) {
  // The open-loop threads run with a 1 ns timer slack, so a sleep wakes
  // within microseconds of the due time; spinning instead would take the
  // CPU agard needs.
  for (;;) {
    const double left = due - now_s();
    if (left <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

/// An agard child process. The destructor terminates and reaps it if it is
/// still running, so no exit path leaves a daemon behind.
class Agard {
 public:
  explicit Agard(const DaemonOptions& o) : socket_(o.socket) {
    ::unlink(socket_.c_str());
    std::vector<std::string> args = {o.agard,  "--config", o.config,
                                     "--listen", o.socket, "--no-sighup"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, o.log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    spawned_at_ = now_s();
    const int rc = ::posix_spawn(&pid_, o.agard.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start agard '" + o.agard + "'");
    }
  }
  Agard(const Agard&) = delete;
  Agard& operator=(const Agard&) = delete;
  ~Agard() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// Seconds from spawn until agard answers PING (it binds its socket only
  /// after every route is built).
  double wait_ready(double timeout_s) {
    for (;;) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("agard exited during start-up");
      }
      try {
        daemon::DaemonClient probe = daemon::DaemonClient::connect_uds(socket_);
        if (probe.ping().status == daemon::Status::kOk) {
          return now_s() - spawned_at_;
        }
      } catch (const std::exception&) {
        // not listening yet
      }
      if (now_s() - spawned_at_ > timeout_s) {
        throw std::runtime_error("agard did not answer PING in time");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// SHUTDOWN, then reap.
  void shutdown() {
    daemon::DaemonClient control = daemon::DaemonClient::connect_uds(socket_);
    (void)control.shutdown();
    int status = 0;
    const pid_t pid = pid_;
    pid_ = -1;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("agard did not exit cleanly after SHUTDOWN");
    }
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double spawned_at_ = 0.0;
};

/// What a request should get back, per key.
struct Expectations {
  std::vector<std::string> keys;
  std::vector<std::string> payloads;  ///< for untagged (payload) requests
};

struct ReplyStats {
  std::uint64_t sent = 0, tagged = 0, ok = 0, not_ok = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t payload_bytes = 0, payload_mismatch = 0;
  std::string first_error;

  void merge(const ReplyStats& o) {
    sent += o.sent;
    tagged += o.tagged;
    ok += o.ok;
    not_ok += o.not_ok;
    transport_errors += o.transport_errors;
    payload_bytes += o.payload_bytes;
    payload_mismatch += o.payload_mismatch;
    if (first_error.empty()) first_error = o.first_error;
  }

  [[nodiscard]] std::string json() const {
    return JsonObject()
        .count("sent", sent)
        .count("tagged", tagged)
        .count("ok", ok)
        .count("not_ok", not_ok)
        .count("transport_errors", transport_errors)
        .count("payload_bytes", payload_bytes)
        .count("payload_mismatch", payload_mismatch)
        .str("first_error", first_error)
        .dump();
  }
};

/// One GET; false when the connection is no longer usable.
bool exchange(daemon::DaemonClient& conn, const Request& r,
              const DaemonOptions& o, const Expectations& expect,
              ReplyStats& st, daemon::GetResponse& response) {
  ++st.sent;
  if (r.tagged) ++st.tagged;
  const std::string& key = expect.keys[r.key];
  try {
    response = conn.get(r.tagged ? o.tag : std::string(), key, !r.tagged);
  } catch (const std::exception& e) {
    ++st.transport_errors;
    if (st.first_error.empty()) st.first_error = e.what();
    return false;
  }
  if (response.status != daemon::Status::kOk) {
    ++st.not_ok;
    if (st.first_error.empty()) {
      st.first_error = std::string("status ") + daemon::to_string(response.status);
    }
    return true;
  }
  ++st.ok;
  if (!r.tagged) {
    st.payload_bytes += response.payload.size();
    if (response.payload != expect.payloads[r.key]) ++st.payload_mismatch;
  }
  return true;
}

struct ClosedThread {
  ReplyStats warm, measured;
  std::vector<double> rtt_us, service_us;
  double last_reply_s = 0.0;
};

struct OpenThread {
  ReplyStats stats;
  std::vector<double> due_us, picked_us, send_us, reply_us, ok;
};

struct ReplayResult {
  std::vector<double> inproc_us;
  double codec_ns = 0.0;
  double match_ns = 0.0;
  std::uint64_t codec_bytes = 0;  ///< bytes the codec replay produced
};

/// In-process replays on the closed-loop phase's own requests: the routes
/// served by ServiceInstance directly (no socket, no server), and the
/// frame codec and route matcher alone.
ReplayResult replay_in_process(const DaemonOptions& o,
                               const daemon::DaemonConfig& config,
                               const std::vector<Request>& stream,
                               std::size_t warm_count, std::size_t total,
                               const Expectations& expect) {
  ReplayResult out;
  std::vector<std::unique_ptr<daemon::ServiceInstance>> instances;
  for (const daemon::RouteRule& rule : config.routes) {
    instances.push_back(std::make_unique<daemon::ServiceInstance>(rule));
  }
  out.inproc_us.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const Request& r = stream[i % stream.size()];
    const std::string tag = r.tagged ? o.tag : std::string();
    const std::string& key = expect.keys[r.key];
    const double t0 = now_s();
    const auto route = daemon::match_route(config.routes, tag, key);
    if (!route.has_value()) throw std::runtime_error("replay: no route");
    const daemon::GetResponse response =
        instances[*route]->serve_get(key, !r.tagged);
    const double t1 = now_s();
    if (response.status != daemon::Status::kOk) {
      throw std::runtime_error("replay: read failed in process");
    }
    if (i >= warm_count) out.inproc_us.push_back((t1 - t0) * 1e6);
  }

  // Codec: one full GET exchange's encoding and decoding, both sides, with
  // the reply carrying the payload a real reply carries.
  const std::size_t codec_n = std::min<std::size_t>(total, 20000);
  double t0 = now_s();
  for (std::size_t i = 0; i < codec_n; ++i) {
    const Request& r = stream[i % stream.size()];
    const daemon::GetRequest request{r.tagged ? o.tag : std::string(),
                                     expect.keys[r.key], !r.tagged};
    const std::string frame = daemon::encode_frame(
        daemon::MsgType::kGet, false, daemon::encode_get_request(request));
    const daemon::FrameHeader header = daemon::decode_header(
        reinterpret_cast<const unsigned char*>(frame.data()), frame.size());
    const daemon::GetRequest seen =
        daemon::decode_get_request(frame.substr(daemon::kHeaderBytes));
    daemon::GetResponse response;
    response.virtual_ms = 1.0;
    if (seen.want_payload) response.payload = expect.payloads[r.key];
    const std::string reply = daemon::encode_frame(
        daemon::MsgType::kGet, true, daemon::encode_get_response(response));
    const daemon::FrameHeader reply_header = daemon::decode_header(
        reinterpret_cast<const unsigned char*>(reply.data()), reply.size());
    const daemon::GetResponse back =
        daemon::decode_get_response(reply.substr(daemon::kHeaderBytes));
    out.codec_bytes += header.body_len + reply_header.body_len +
                       back.payload.size();
  }
  out.codec_ns = (now_s() - t0) * 1e9 / static_cast<double>(codec_n);

  const std::size_t match_n = std::min<std::size_t>(total, 200000);
  std::size_t matched = 0;
  t0 = now_s();
  for (std::size_t i = 0; i < match_n; ++i) {
    const Request& r = stream[i % stream.size()];
    matched += daemon::match_route(config.routes,
                                   r.tagged ? o.tag : std::string(),
                                   expect.keys[r.key])
                   .has_value();
  }
  out.match_ns = (now_s() - t0) * 1e9 / static_cast<double>(match_n);
  if (matched != match_n) throw std::runtime_error("replay: unmatched key");
  return out;
}

}  // namespace

int run_daemon(const DaemonOptions& o) {
  const daemon::DaemonConfig config = daemon::load_daemon_config(o.config);
  Expectations expect;
  for (std::size_t i = 0; i < o.keys; ++i) {
    const std::string key = "object" + std::to_string(i);
    expect.keys.push_back(key);
    const auto route = daemon::match_route(config.routes, "", key);
    if (!route.has_value()) throw std::runtime_error("no route for " + key);
    const std::size_t size =
        config.routes[*route].spec.experiment.deployment.object_size_bytes;
    const Bytes payload = deterministic_payload(key, size);
    expect.payloads.emplace_back(payload.begin(), payload.end());
  }
  const std::vector<Request> closed_stream =
      make_stream(1 << 20, o.stream_seed, o);
  const std::vector<double> schedule =
      make_schedule(o.rate, o.open_s, o.arrival_seed);
  const std::vector<Request> open_stream =
      make_stream(schedule.size(), o.open_seed, o);

  // Set-up: agard is started and stopped `setups` times, then once more
  // for the measured phases; every start counts as a set-up sample.
  std::vector<double> start_s;
  for (std::size_t i = 0; i < o.setups; ++i) {
    Agard agard(o);
    start_s.push_back(agard.wait_ready(60.0));
    agard.shutdown();
  }
  Agard agard(o);
  start_s.push_back(agard.wait_ready(60.0));

  std::vector<daemon::DaemonClient> conns;
  for (std::size_t c = 0; c < o.connections; ++c) {
    conns.push_back(daemon::DaemonClient::connect_uds(o.socket));
  }

  // Closed loop: warm-up, then the measured phase, on the same threads.
  std::vector<ClosedThread> closed(o.connections);
  std::atomic<std::size_t> next{0};
  const double warm_start = now_s();
  const double closed_start = warm_start + o.warmup_s;
  const double closed_end = closed_start + o.closed_s;
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < o.connections; ++c) {
      threads.emplace_back([&, c] {
        ClosedThread& me = closed[c];
        daemon::GetResponse response;
        for (;;) {
          const double t0 = now_s();
          if (t0 >= closed_end) break;
          const bool measured = t0 >= closed_start;
          const Request& r =
              closed_stream[next.fetch_add(1) % closed_stream.size()];
          const bool alive = exchange(conns[c], r, o, expect,
                                      measured ? me.measured : me.warm,
                                      response);
          const double t1 = now_s();
          if (measured) {
            me.rtt_us.push_back((t1 - t0) * 1e6);
            me.service_us.push_back(static_cast<double>(response.wall_us));
            me.last_reply_s = t1;
          }
          if (!alive) break;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::size_t closed_total = next.load();

  // Open loop on the precomputed schedule.
  std::vector<OpenThread> open(o.connections);
  std::atomic<std::size_t> next_open{0};
  const double open_start = now_s() + 0.01;
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < o.connections; ++c) {
      threads.emplace_back([&, c] {
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        OpenThread& me = open[c];
        daemon::GetResponse response;
        for (;;) {
          const std::size_t i = next_open.fetch_add(1);
          if (i >= schedule.size()) break;
          const double picked = now_s();
          wait_until(open_start + schedule[i]);
          const double sent = now_s();
          const std::uint64_t ok_before = me.stats.ok;
          const bool alive =
              exchange(conns[c], open_stream[i], o, expect, me.stats, response);
          const double done = now_s();
          me.due_us.push_back(schedule[i] * 1e6);
          me.picked_us.push_back((picked - open_start) * 1e6);
          me.send_us.push_back((sent - open_start) * 1e6);
          me.reply_us.push_back((done - open_start) * 1e6);
          me.ok.push_back(me.stats.ok > ok_before ? 1.0 : 0.0);
          if (!alive) break;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const std::string metrics = conns[0].metrics(false).text;
  conns.clear();
  agard.shutdown();

  ReplyStats warm, measured, open_stats;
  std::vector<double> rtt_us, service_us;
  double last_reply = closed_start;
  for (const ClosedThread& t : closed) {
    warm.merge(t.warm);
    measured.merge(t.measured);
    rtt_us.insert(rtt_us.end(), t.rtt_us.begin(), t.rtt_us.end());
    service_us.insert(service_us.end(), t.service_us.begin(),
                      t.service_us.end());
    last_reply = std::max(last_reply, t.last_reply_s);
  }
  std::vector<double> due_us, picked_us, send_us, reply_us, ok;
  for (const OpenThread& t : open) {
    open_stats.merge(t.stats);
    due_us.insert(due_us.end(), t.due_us.begin(), t.due_us.end());
    picked_us.insert(picked_us.end(), t.picked_us.begin(), t.picked_us.end());
    send_us.insert(send_us.end(), t.send_us.begin(), t.send_us.end());
    reply_us.insert(reply_us.end(), t.reply_us.begin(), t.reply_us.end());
    ok.insert(ok.end(), t.ok.begin(), t.ok.end());
  }

  JsonObject out;
  out.raw("start_s", json_array(start_s))
      .raw("warm", warm.json())
      .raw("closed", JsonObject()
                         .num("wall_s", last_reply - closed_start)
                         .raw("stats", measured.json())
                         .raw("rtt_us", json_array(rtt_us))
                         .raw("service_us", json_array(service_us))
                         .dump())
      .raw("open", JsonObject()
                       .num("seconds", o.open_s)
                       .count("scheduled", schedule.size())
                       .raw("stats", open_stats.json())
                       .raw("due_us", json_array(due_us))
                       .raw("picked_us", json_array(picked_us))
                       .raw("send_us", json_array(send_us))
                       .raw("reply_us", json_array(reply_us))
                       .raw("ok", json_array(ok))
                       .dump())
      .raw("metrics", metrics);

  const ReplayResult replay = replay_in_process(
      o, config, closed_stream, closed_total - measured.sent, closed_total,
      expect);
  out.raw("replay", JsonObject()
                        .raw("inproc_us", json_array(replay.inproc_us))
                        .num("codec_ns", replay.codec_ns)
                        .num("match_ns", replay.match_ns)
                        .count("codec_bytes", replay.codec_bytes)
                        .dump());
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace bench
