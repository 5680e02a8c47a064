// cbtc_serve — scenario shard daemon.
//
//   cbtc_serve [--port P] [--bind ADDR] [--threads T] [--io-timeout-ms N]
//
// Accepts batch requests over the cbtc wire protocol (api/wire.h) and
// streams seed-block partials back; cbtc_cli dispatch fans a sweep
// across any number of these. --port 0 (the default) binds an
// ephemeral port; the actual address is printed on startup as
//
//   cbtc_serve listening on ADDR:PORT
//
// SECURITY: the listener has no authentication or encryption — bind
// trusted-network interfaces only. The default bind is loopback;
// pass --bind explicitly to expose a LAN interface.
//
// Stops gracefully on SIGINT/SIGTERM or a client shutdown frame.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>

#include "cli_options.h"
#include "net/service.h"

namespace {

std::atomic<cbtc::net::scenario_server*> active_server{nullptr};

void handle_signal(int) {
  if (cbtc::net::scenario_server* s = active_server.load()) s->stop();
}

int usage() {
  std::cout << "usage: cbtc_serve [--port P] [--bind ADDR] [--threads T] [--io-timeout-ms N]\n"
            << "scenario shard daemon for cbtc_cli dispatch (trusted networks only)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using cbtc::tools::parse_count;
  using cbtc::tools::usage_error;
  cbtc::net::serve_config cfg;
  // Every value is checked before anything binds: a bad one exits 2
  // with the option's name and the usage.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") return usage();
      const auto value = [&] {
        if (i + 1 >= argc) throw usage_error("option " + arg + ": needs a value");
        return std::string(argv[++i]);
      };
      if (arg == "--port") {
        cfg.port = parse_count<std::uint16_t>("port", value());
      } else if (arg == "--bind") {
        cfg.bind_address = value();
      } else if (arg == "--threads") {
        cfg.threads = parse_count<unsigned>("threads", value());
      } else if (arg == "--io-timeout-ms") {
        cfg.io_timeout_ms = parse_count<int>("io-timeout-ms", value());
        if (cfg.io_timeout_ms == 0) throw usage_error("option --io-timeout-ms: must be positive");
      } else {
        throw usage_error("unknown option " + arg);
      }
    }
  } catch (const usage_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }

  try {
    cbtc::net::scenario_server server(cfg);
    active_server.store(&server);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::cout << "cbtc_serve listening on " << cfg.bind_address << ":" << server.port()
              << std::endl;
    server.run();
    active_server.store(nullptr);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
