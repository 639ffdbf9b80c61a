// agard — the Agar data plane as a long-running daemon.
//
//   $ ./agard --config examples/specs/daemon_routes.json
//   $ ./agard --config routes.json --listen /tmp/agard.sock --foreground
//
// Requests arrive on a Unix-domain socket and are routed to registered
// strategies/engines purely by the declarative routing config.
// SIGHUP — or `agarctl reload` — re-reads the config without dropping
// in-flight requests; `agarctl shutdown` (or SIGTERM/SIGINT) stops it.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <iostream>
#include <string>

#include "daemon/server.hpp"

using namespace agar;

namespace {

// Write end of the server's wake pipe, published for the termination
// handler (only the async-signal-safe write(2) happens there).
std::atomic<int> g_stop_fd{-1};

extern "C" void on_terminate(int) {
  const int fd = g_stop_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'Q';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void usage() {
  std::cout <<
      "agard -- config-driven daemon front-end for the Agar data plane\n"
      "\n"
      "  --config <file.json>  routing config (required); see\n"
      "                        examples/specs/daemon_routes.json\n"
      "  --listen <path>       UDS path (overrides the config's \"listen\")\n"
      "  --no-sighup           do not install the SIGHUP reload handler\n"
      "  --print-socket        print the bound UDS path once serving\n"
      "\n"
      "Control the running daemon with agarctl (ping, get, load, metrics,\n"
      "reload, routes, spec-of, drain, repair, shutdown).\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string listen_override;
  bool install_sighup = true;
  bool print_socket = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "agard: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--config") {
      config_path = next("--config");
    } else if (arg == "--listen") {
      listen_override = next("--listen");
    } else if (arg == "--no-sighup") {
      install_sighup = false;
    } else if (arg == "--print-socket") {
      print_socket = true;
    } else {
      usage();
      std::cerr << "agard: unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (config_path.empty()) {
    usage();
    std::cerr << "agard: --config is required\n";
    return 2;
  }

  try {
    daemon::DaemonConfig config = daemon::load_daemon_config(config_path);
    daemon::ServerOptions options;
    options.config_path = config_path;
    options.listen_override = listen_override;
    options.install_sighup = install_sighup;
    daemon::Server server(std::move(config), std::move(options));
    server.start();

    g_stop_fd.store(server.stop_fd(), std::memory_order_relaxed);
    struct sigaction action{};
    action.sa_handler = on_terminate;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    if (print_socket) {
      std::cout << server.socket_path() << "\n" << std::flush;
    }
    server.wait();
    g_stop_fd.store(-1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    std::cerr << "agard: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
