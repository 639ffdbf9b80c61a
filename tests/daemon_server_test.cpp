// End-to-end daemon tests over a real Unix-domain socket: lifecycle
// (start -> concurrent clients -> live reload with in-flight requests ->
// clean shutdown), SIGHUP-triggered reload, and the equivalence contract —
// a replayed clients=1 runs=1 key stream served over the socket produces
// the same results_json as the in-process batch runner.
#include "daemon/server.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "api/run.hpp"
#include "client/report.hpp"
#include "client/workload.hpp"
#include "common/bytes.hpp"
#include "daemon/client.hpp"

namespace agar::daemon {
namespace {

// Short unique /tmp paths: sun_path is 108 bytes and tests may run in
// parallel processes.
std::string temp_path(const std::string& stem, const std::string& suffix) {
  return "/tmp/" + stem + std::to_string(::getpid()) + suffix;
}

std::string route_spec(const std::string& system, const std::string& extra,
                       const std::string& region = "frankfurt") {
  return R"({"system": ")" + system + R"(", "region": ")" + region +
         R"(", "objects": 40,
             "object_bytes": "9KB", "ops": 200, "runs": 1, "clients": 1,
             "seed": 7)" +
         extra + "}";
}

/// The 'hot' route every test serves unless it picks its own.
const std::string kLruHotSpec =
    route_spec("lru", R"(, "chunks": 5, "cache_bytes": "200KB")");

std::string write_config(const std::string& path, const std::string& listen,
                         const std::string& default_system,
                         const std::string& default_extra = "",
                         const std::string& hot_spec = kLruHotSpec) {
  const std::string text = R"({
    "listen": ")" + listen +
                           R"(",
    "routes": [
      {"name": "hot", "tag": "hot", "spec": )" +
                           hot_spec +
                           R"(},
      {"name": "default", "spec": )" +
                           route_spec(default_system, default_extra) + R"(}
    ]
  })";
  std::ofstream out(path);
  out << text;
  out.close();
  return text;
}

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    config_path_ = temp_path("agard_cfg", ".json");
    socket_path_ = temp_path("agard", ".sock");
    write_config(config_path_, socket_path_, "backend");
  }

  void TearDown() override {
    ::unlink(config_path_.c_str());
    ::unlink(socket_path_.c_str());
  }

  std::unique_ptr<Server> start_server(bool install_sighup = false) {
    DaemonConfig config = load_daemon_config(config_path_);
    ServerOptions options;
    options.config_path = config_path_;
    options.install_sighup = install_sighup;
    auto server = std::make_unique<Server>(std::move(config),
                                           std::move(options));
    server->start();
    return server;
  }

  std::string config_path_;
  std::string socket_path_;
};

TEST_F(ServerFixture, ServesConcurrentClientsAndShutsDownCleanly) {
  auto server = start_server();

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 30;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DaemonClient connection = DaemonClient::connect_uds(socket_path_);
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string key = "object" + std::to_string((c * 7 + i) % 40);
        const GetResponse response = connection.get("hot", key, false);
        if (response.status == Status::kOk) ++ok;
        EXPECT_EQ(response.route, 0u);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kOpsPerClient);

  DaemonClient control = DaemonClient::connect_uds(socket_path_);
  EXPECT_EQ(control.ping().status, Status::kOk);
  EXPECT_EQ(control.shutdown().status, Status::kOk);
  server->wait();
  server->stop();
  // The socket is gone: no half-dead daemon accepting connections.
  EXPECT_THROW(DaemonClient::connect_uds(socket_path_), std::runtime_error);
}

/// This process's virtual size in kB (the VmSize line of /proc/self/status).
std::size_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST_F(ServerFixture, FinishedConnectionsReturnTheirThreadStacks) {
  // A finished connection must give back everything it held: 64
  // connect/ping/close cycles may not grow the process by 1 MB each (a
  // thread per connection, never joined, would keep an 8 MB stack each).
  auto server = start_server();
  const auto connect_ping_close = [&] {
    DaemonClient connection = DaemonClient::connect_uds(socket_path_);
    EXPECT_EQ(connection.ping().status, Status::kOk);
  };
  // Let the first connections warm up the allocator before measuring.
  for (int i = 0; i < 4; ++i) connect_ping_close();
  const std::size_t before_kb = vm_size_kb();
  ASSERT_GT(before_kb, 0u);
  for (int i = 0; i < 64; ++i) connect_ping_close();
  const std::size_t after_kb = vm_size_kb();
  EXPECT_LT(after_kb, before_kb + 64 * 1024)
      << "VmSize " << before_kb << " kB -> " << after_kb << " kB";
  server->stop();
}

/// A client socket that sends raw bytes and reads reply frames. Reads time
/// out after 5 s, so a server that stops answering fails the test instead
/// of hanging it.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    const sockaddr_un addr = uds_address(path);
    const timeval timeout{5, 0};
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout)) != 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("connect '" + path + "': " + err);
    }
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  void send(const std::string& bytes) const { write_all(fd_, bytes); }

  /// The body of the next frame, which must be a reply of type `type`.
  [[nodiscard]] std::string reply(MsgType type) const {
    unsigned char header_bytes[kHeaderBytes];
    if (!read_exact(fd_, header_bytes, kHeaderBytes)) {
      throw std::runtime_error("the server closed the connection");
    }
    const FrameHeader header = decode_header(header_bytes, kHeaderBytes);
    EXPECT_TRUE(header.is_reply);
    EXPECT_EQ(static_cast<int>(header.type), static_cast<int>(type));
    std::string body(header.body_len, '\0');
    if (!body.empty() &&
        !read_exact(fd_, reinterpret_cast<unsigned char*>(body.data()),
                    body.size())) {
      throw std::runtime_error("the server closed the connection");
    }
    return body;
  }

 private:
  int fd_ = -1;
};

const std::string kPingFrame = encode_frame(MsgType::kPing, false, "");

std::string get_frame(const std::string& tag, const std::string& key,
                      bool want_payload) {
  return encode_frame(MsgType::kGet, false,
                      encode_get_request(GetRequest{tag, key, want_payload}));
}

TEST_F(ServerFixture, ClientsThatHangUpBeforeTheReplyDoNotStopTheServer) {
  // Every reply goes to a socket its client has closed. Writing to it
  // raises SIGPIPE unless the write asks not to, and SIGPIPE ends the
  // process.
  auto server = start_server();
  for (int i = 0; i < 50; ++i) {
    const RawConnection connection(socket_path_);
    connection.send(i % 2 == 0 ? kPingFrame
                               : get_frame("hot", "object3", true));
  }
  DaemonClient control = DaemonClient::connect_uds(socket_path_);
  EXPECT_EQ(control.ping().status, Status::kOk);
  EXPECT_EQ(control.get("hot", "object3", true).status, Status::kOk);
  server->stop();
}

TEST_F(ServerFixture, ASecondServerCannotTakeOverALiveSocket) {
  auto server = start_server();
  {
    ServerOptions options;
    options.config_path = config_path_;
    Server second(load_daemon_config(config_path_), options);
    try {
      second.start();
      ADD_FAILURE() << "a second server bound the live socket";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("is served by a running daemon"),
                std::string::npos)
          << e.what();
    }
  }
  // The second server's destructor left the first one's socket in place.
  EXPECT_EQ(DaemonClient::connect_uds(socket_path_).ping().status,
            Status::kOk);
  server->stop();
}

/// Descriptors this process has open.
std::size_t open_descriptors() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n - 1;  // the directory iterator's own descriptor
}

/// User plus system CPU seconds this process has used.
double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Lowers this process's soft descriptor limit while it lives.
class DescriptorLimit {
 public:
  explicit DescriptorLimit(rlim_t limit) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = limit;
    ::setrlimit(RLIMIT_NOFILE, &lowered);
  }
  ~DescriptorLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  DescriptorLimit(const DescriptorLimit&) = delete;
  DescriptorLimit& operator=(const DescriptorLimit&) = delete;

 private:
  rlimit saved_{};
};

TEST_F(ServerFixture, RunningOutOfDescriptorsDoesNotSpin) {
  auto server = start_server();
  std::optional<DescriptorLimit> limit(std::in_place, open_descriptors() + 1);
  // The client takes the last free descriptor, so the server's accept
  // fails with EMFILE and the connection stays queued on the listener.
  const RawConnection waiting(socket_path_);
  const double cpu_before = cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu_used = cpu_seconds() - cpu_before;
  limit.reset();
  EXPECT_LT(cpu_used, 0.1) << "the server spun while it could not accept";
  waiting.send(kPingFrame);
  EXPECT_EQ(decode_control_reply(waiting.reply(MsgType::kPing)).status,
            Status::kOk);
  server->stop();
}

TEST_F(ServerFixture, SplitAndPipelinedFramesAreServedInOrder) {
  auto server = start_server();
  const RawConnection raw(socket_path_);
  DaemonClient other = DaemonClient::connect_uds(socket_path_);
  // A frame that arrives a byte at a time holds up no other client.
  for (const char byte : kPingFrame) {
    raw.send(std::string(1, byte));
    EXPECT_EQ(other.get("hot", "object1", false).status, Status::kOk);
  }
  EXPECT_EQ(decode_control_reply(raw.reply(MsgType::kPing)).text, "pong");
  // Three requests in one write: three replies, in request order.
  raw.send(get_frame("hot", "object2", true) +
           encode_frame(MsgType::kRoutes, false, "") + kPingFrame);
  EXPECT_EQ(decode_get_response(raw.reply(MsgType::kGet)).status,
            Status::kOk);
  EXPECT_NE(decode_control_reply(raw.reply(MsgType::kRoutes))
                .text.find("\"name\": \"hot\""),
            std::string::npos);
  EXPECT_EQ(decode_control_reply(raw.reply(MsgType::kPing)).text, "pong");
  server->stop();
}

TEST_F(ServerFixture, ASlowReaderDoesNotStallOtherClients) {
  // Eight 4 MB replies are far more than a socket buffer holds, so the
  // server has reply bytes it cannot send while the slow client reads
  // nothing.
  write_config(config_path_, socket_path_, "backend", "",
               R"({"system": "backend", "region": "frankfurt",
                   "objects": 8, "object_bytes": "4MB", "ops": 200,
                   "runs": 1, "clients": 1, "seed": 7})");
  auto server = start_server();
  const RawConnection slow(socket_path_);
  std::string requests;
  for (int i = 0; i < 8; ++i) {
    requests += get_frame("hot", "object" + std::to_string(i), true);
  }
  slow.send(requests);
  const RawConnection other(socket_path_);
  other.send(kPingFrame);
  EXPECT_EQ(decode_control_reply(other.reply(MsgType::kPing)).status,
            Status::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int i = 0; i < 8; ++i) {
    const GetResponse response =
        decode_get_response(slow.reply(MsgType::kGet));
    ASSERT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.payload.size(), std::size_t{4} << 20);
    const Bytes expected =
        deterministic_payload("object" + std::to_string(i), 4 << 20);
    EXPECT_TRUE(response.payload ==
                std::string(expected.begin(), expected.end()))
        << "payload " << i;
  }
  server->stop();
}

TEST_F(ServerFixture, UnmatchedAndUnknownRequests) {
  auto server = start_server();
  DaemonClient connection = DaemonClient::connect_uds(socket_path_);
  // 'default' has no tag/prefix filter, so only an unknown key can miss.
  EXPECT_EQ(connection.get("", "object999", false).status,
            Status::kUnknownKey);
  // A garbage body on a live connection gets a bad-request reply, keeps
  // the connection usable and does not kill the server.
  const std::string bad =
      encode_frame(MsgType::kGet, false, std::string("\x01", 1));
  const ControlReply bad_reply =
      decode_control_reply(connection.roundtrip(bad, MsgType::kGet));
  EXPECT_EQ(bad_reply.status, Status::kBadRequest);
  EXPECT_EQ(connection.ping().status, Status::kOk);
  server->stop();
}

TEST_F(ServerFixture, GetWithPayloadReturnsTheObjectBytes) {
  auto server = start_server();
  const DaemonConfig config = load_daemon_config(config_path_);
  const std::size_t object_bytes =
      config.routes[0].spec.experiment.deployment.object_size_bytes;
  DaemonClient connection = DaemonClient::connect_uds(socket_path_);
  const GetResponse response = connection.get("hot", "object3", true);
  ASSERT_EQ(response.status, Status::kOk);
  const Bytes expected = deterministic_payload("object3", object_bytes);
  EXPECT_EQ(response.payload, std::string(expected.begin(), expected.end()));
  server->stop();
}

TEST_F(ServerFixture, RepairScansAVerifyRoute) {
  write_config(config_path_, socket_path_, "backend", "",
               route_spec("lru", R"(, "chunks": 5, "cache_bytes": "200KB",
                          "verify": true)"));
  auto server = start_server();
  const std::size_t objects =
      load_daemon_config(config_path_).routes[0].spec.experiment.deployment
          .num_objects;
  DaemonClient control = DaemonClient::connect_uds(socket_path_);
  const ControlReply reply = control.repair("hot");
  ASSERT_EQ(reply.status, Status::kOk) << reply.text;
  const api::JsonValue report = api::parse_json(reply.text);
  ASSERT_TRUE(report.is_array());
  ASSERT_EQ(report.array.size(), 1u);
  const api::JsonValue& entry = report.array[0];
  EXPECT_EQ(entry.find("name")->as_param_text(), "hot");
  EXPECT_EQ(entry.find("objects_scanned")->as_param_text(),
            std::to_string(objects));
  EXPECT_EQ(entry.find("objects_damaged")->as_param_text(), "0");
  server->stop();
}

TEST_F(ServerFixture, RepairRefusesAMetadataOnlyRoute) {
  auto server = start_server();
  DaemonClient control = DaemonClient::connect_uds(socket_path_);
  const ControlReply reply = control.repair("hot");
  EXPECT_EQ(reply.status, Status::kError);
  EXPECT_NE(reply.text.find("metadata-only backend"), std::string::npos)
      << reply.text;
  server->stop();
}

TEST_F(ServerFixture, RepairOfAnUnknownRouteIsABadRequest) {
  auto server = start_server();
  DaemonClient control = DaemonClient::connect_uds(socket_path_);
  EXPECT_EQ(control.repair("no-such-route").status, Status::kBadRequest);
  server->stop();
}

TEST_F(ServerFixture, ReloadSwapsRoutesUnderInFlightLoad) {
  auto server = start_server();

  // Hammer the 'hot' route from two threads while the table is swapped.
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> load;
  for (int c = 0; c < 2; ++c) {
    load.emplace_back([&, c] {
      DaemonClient connection = DaemonClient::connect_uds(socket_path_);
      int i = 0;
      while (!done.load()) {
        const GetResponse response = connection.get(
            "hot", "object" + std::to_string((i++ * 11 + c) % 40), false);
        if (response.status != Status::kOk) ++failures;
      }
    });
  }

  // Swap the default route backend -> lfu (a different registered engine)
  // several times mid-load; 'hot' keeps its warm instance every time.
  DaemonClient control = DaemonClient::connect_uds(socket_path_);
  for (int swap = 0; swap < 3; ++swap) {
    if (swap % 2 == 0) {
      write_config(config_path_, socket_path_, "lfu", R"(, "chunks": 5)");
    } else {
      write_config(config_path_, socket_path_, "backend");
    }
    const ControlReply reply = control.reload("");
    ASSERT_EQ(reply.status, Status::kOk) << reply.text;
    EXPECT_NE(reply.text.find("1 kept"), std::string::npos) << reply.text;
  }
  const ControlReply routes = control.routes();
  EXPECT_NE(routes.text.find("\"system\": \"lfu\""), std::string::npos);

  // A config that fails validation must leave the old table serving.
  std::ofstream(config_path_) << R"({"routes": []})";
  EXPECT_EQ(control.reload("").status, Status::kError);
  EXPECT_EQ(control.get("hot", "object1", false).status, Status::kOk);

  done.store(true);
  for (auto& t : load) t.join();
  EXPECT_EQ(failures.load(), 0) << "reload dropped in-flight requests";
  server->stop();
}

TEST_F(ServerFixture, SighupTriggersReload) {
  auto server = start_server(/*install_sighup=*/true);
  DaemonClient control = DaemonClient::connect_uds(socket_path_);
  ASSERT_EQ(control.ping().status, Status::kOk);

  write_config(config_path_, socket_path_, "lfu", R"(, "chunks": 5)");
  ASSERT_EQ(::raise(SIGHUP), 0);
  // The handler only writes a pipe byte; the serving thread applies the
  // reload asynchronously. Poll for the visible effect.
  bool swapped = false;
  for (int i = 0; i < 100 && !swapped; ++i) {
    swapped = control.routes().text.find("\"system\": \"lfu\"") !=
              std::string::npos;
    if (!swapped) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(swapped) << "SIGHUP did not apply the new routing config";
  EXPECT_EQ(control.get("hot", "object1", false).status, Status::kOk);
  server->stop();
}

TEST_F(ServerFixture, FailedSighupReloadKeepsOldTableAndReportsOnStderr) {
  auto server = start_server(/*install_sighup=*/true);
  DaemonClient control = DaemonClient::connect_uds(socket_path_);
  ASSERT_EQ(control.ping().status, Status::kOk);

  std::ofstream(config_path_) << R"({"routes": []})";
  ::testing::internal::CaptureStderr();
  ASSERT_EQ(::raise(SIGHUP), 0);
  // The serving thread drains the signal's pipe byte (and runs the reload)
  // before it accepts any connection made after the signal, so a fresh
  // connection answering a ping proves the reload attempt has finished.
  // The captured text can be read only once, hence this barrier instead of
  // a polling loop.
  const Status barrier = DaemonClient::connect_uds(socket_path_).ping().status;
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(barrier, Status::kOk);
  EXPECT_NE(err.find("SIGHUP reload failed"), std::string::npos) << err;
  EXPECT_NE(err.find("needs a non-empty 'routes' array"), std::string::npos)
      << err;
  EXPECT_NE(control.routes().text.find("\"system\": \"backend\""),
            std::string::npos);
  EXPECT_EQ(control.get("hot", "object1", false).status, Status::kOk);
  server->stop();
}

/// One 'hot' route spec of the equivalence suite.
struct HotRoute {
  std::string name;  ///< test-name suffix
  std::string spec;
};

void PrintTo(const HotRoute& route, std::ostream* os) { *os << route.name; }

class RouteEquivalence : public ServerFixture,
                         public ::testing::WithParamInterface<HotRoute> {
 protected:
  void SetUp() override {
    ServerFixture::SetUp();
    write_config(config_path_, socket_path_, "backend", "", GetParam().spec);
  }
};

// The acceptance contract: serving the runner's exact key stream over the
// socket, then draining, yields the same results_json as the in-process
// batch run of the same spec — modulo planning_ms, which is wall clock.
TEST_P(RouteEquivalence, MetricsMatchInProcessRunForReplayedStream) {
  auto server = start_server();

  DaemonConfig config = load_daemon_config(config_path_);
  const api::ExperimentSpec spec = config.routes[0].spec;
  const auto& experiment = spec.experiment;

  DaemonClient connection = DaemonClient::connect_uds(socket_path_);
  client::Workload workload(
      experiment.workload, experiment.deployment.num_objects,
      client::workload_stream_seed(experiment.deployment.seed, 0, 0));
  for (std::size_t i = 0; i < experiment.ops_per_run; ++i) {
    const GetResponse response =
        connection.get("hot", workload.next_key(), false);
    ASSERT_EQ(response.status, Status::kOk);
  }
  ASSERT_EQ(connection.drain().status, Status::kOk);
  const ControlReply metrics = connection.metrics(/*results_only=*/true);
  ASSERT_EQ(metrics.status, Status::kOk);

  const api::RunReport report = api::run(spec);
  const std::string expected = client::results_json({report.result});

  const std::regex planning("\"planning_ms\": [^,}]*");
  const std::string daemon_norm =
      std::regex_replace(metrics.text, planning, "\"planning_ms\": 0");
  const std::string inproc_norm =
      std::regex_replace(expected, planning, "\"planning_ms\": 0");
  // The daemon dump covers every route; the in-process run is one system.
  // Equivalence = the in-process entry appears verbatim in the daemon dump.
  const std::string inproc_entry = inproc_norm.substr(
      inproc_norm.find('{'),
      inproc_norm.rfind('}') - inproc_norm.find('{') + 1);
  EXPECT_NE(daemon_norm.find(inproc_entry), std::string::npos)
      << "daemon:\n" << daemon_norm << "\nin-process:\n" << inproc_norm;
  server->stop();
}

// Every kind of route: each read executor's plan shape (Agar, the periodic
// LFU baseline, no cache, fixed chunks under two engines) and both fetch
// policies, one of them from a second client region.
INSTANTIATE_TEST_SUITE_P(
    RouteKinds, RouteEquivalence,
    ::testing::Values(
        HotRoute{"agar", route_spec("agar", R"(, "cache_bytes": "200KB")")},
        HotRoute{"lfu5", route_spec("lfu", R"(, "chunks": 5,
                                    "cache_bytes": "200KB")")},
        HotRoute{"backend", route_spec("backend", "")},
        HotRoute{"lru5", kLruHotSpec},
        HotRoute{"tinylfu5", route_spec("tinylfu", R"(, "chunks": 5,
                                        "cache_bytes": "200KB")")},
        HotRoute{"agar_hedge",
                 route_spec("agar", R"(, "cache_bytes": "200KB",
                            "fetch": "hedge")")},
        HotRoute{"lru5_retry_sydney",
                 route_spec("lru", R"(, "chunks": 5, "cache_bytes": "200KB",
                            "fetch": "retry")",
                            "sydney")}),
    [](const ::testing::TestParamInfo<HotRoute>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace agar::daemon
