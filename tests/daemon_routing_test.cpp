// Routing-config tests: the declarative table is the only thing standing
// between a config edit and the data plane, so parsing, matching and the
// reject matrix all get exercised directly (no sockets involved).
#include "daemon/routing.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace agar::daemon {
namespace {

std::string route(const std::string& name, const std::string& tag,
                  const std::string& prefix, const std::string& spec_extra) {
  return R"({"name": ")" + name + R"(", "tag": ")" + tag +
         R"(", "prefix": ")" + prefix +
         R"(", "spec": {"system": "lru", "chunks": 5, "objects": 20,
                        "object_bytes": "9KB", "ops": 10, "runs": 1,
                        "clients": 1)" +
         spec_extra + "}}";
}

std::string config(const std::string& routes) {
  return R"({"listen": "/tmp/t.sock", "routes": [)" + routes + "]}";
}

TEST(DaemonRouting, ParsesMinimalConfig) {
  const DaemonConfig parsed = parse_daemon_config(config(route("a", "", "", "")));
  EXPECT_EQ(parsed.listen, "/tmp/t.sock");
  ASSERT_EQ(parsed.routes.size(), 1u);
  EXPECT_EQ(parsed.routes[0].name, "a");
  EXPECT_EQ(parsed.routes[0].spec.system, "lru");
  // Route identity is the canonical re-serialization, not the input text.
  EXPECT_EQ(parsed.routes[0].spec_json, parsed.routes[0].spec.to_json());
}

TEST(DaemonRouting, FirstMatchWins) {
  const DaemonConfig parsed = parse_daemon_config(config(
      route("hot", "hot", "", "") + "," + route("cold", "", "cold", "") +
      "," + route("fallback", "", "", "")));
  const auto& routes = parsed.routes;
  EXPECT_EQ(match_route(routes, "hot", "object1"), 0u);
  // Tagged requests can still fall through to untagged rules.
  EXPECT_EQ(match_route(routes, "other", "coldstore3"), 1u);
  EXPECT_EQ(match_route(routes, "", "object1"), 2u);
  EXPECT_EQ(match_route(routes, "hot", "coldstore3"), 0u)
      << "tag match outranks prefix by file order";
}

TEST(DaemonRouting, NoMatchIsEmpty) {
  const DaemonConfig parsed =
      parse_daemon_config(config(route("only", "tagged", "", "")));
  EXPECT_FALSE(match_route(parsed.routes, "", "object1").has_value());
  EXPECT_FALSE(match_route(parsed.routes, "other", "object1").has_value());
}

TEST(DaemonRouting, PrefixMatchesKeyStart) {
  const DaemonConfig parsed =
      parse_daemon_config(config(route("p", "", "obj", "")));
  EXPECT_TRUE(match_route(parsed.routes, "", "object9").has_value());
  EXPECT_FALSE(match_route(parsed.routes, "", "xobject9").has_value());
}

TEST(DaemonRouting, RejectsEmptyRouteList) {
  EXPECT_THROW(parse_daemon_config(R"({"routes": []})"),
               std::invalid_argument);
}

TEST(DaemonRouting, RejectsDuplicateNames) {
  EXPECT_THROW(parse_daemon_config(
                   config(route("a", "", "", "") + "," + route("a", "x", "", ""))),
               std::invalid_argument);
}

TEST(DaemonRouting, RejectsMissingName) {
  EXPECT_THROW(
      parse_daemon_config(config(R"({"spec": {"system": "backend"}})")),
      std::invalid_argument);
}

TEST(DaemonRouting, RejectsMissingSpec) {
  EXPECT_THROW(parse_daemon_config(config(R"({"name": "a"})")),
               std::invalid_argument);
}

TEST(DaemonRouting, RejectsUnknownSystem) {
  EXPECT_THROW(parse_daemon_config(config(
                   R"({"name": "a", "spec": {"system": "nonesuch"}})")),
               std::invalid_argument);
}

TEST(DaemonRouting, RejectsBatchOnlySpecShapes) {
  // Multi-region, sharded, scripted, windowed and cooperative specs are
  // batch-run features; each must fail at parse time, not at serve time.
  EXPECT_THROW(parse_daemon_config(config(route(
                   "a", "", "", R"(, "regions": "frankfurt,dublin")"))),
               std::invalid_argument);
  EXPECT_THROW(
      parse_daemon_config(config(route("a", "", "", R"(, "shards": 2)"))),
      std::invalid_argument);
  EXPECT_THROW(parse_daemon_config(config(route(
                   "a", "", "",
                   R"(, "scenario": [{"at_ms": 10, "event": "drop_region",
                       "region": "dublin", "p": 0.5}])"))),
               std::invalid_argument);
  EXPECT_THROW(parse_daemon_config(
                   config(route("a", "", "", R"(, "window_ms": 1000)"))),
               std::invalid_argument);
  EXPECT_THROW(parse_daemon_config(config(route(
                   "a", "", "", R"(, "collab": "broadcast")"))),
               std::invalid_argument);
}

TEST(DaemonRouting, IgnoresUnreadTopLevelMembers) {
  // Members the daemon does not read are ignored, so configs that still
  // carry "tcp_port" or "idle_tick_ms" load.
  const DaemonConfig parsed = parse_daemon_config(
      R"({"listen": "/tmp/t.sock", "tcp_port": 0, "idle_tick_ms": 0,
          "routes": [)" +
      route("a", "", "", "") + "]}");
  EXPECT_EQ(parsed.listen, "/tmp/t.sock");
  ASSERT_EQ(parsed.routes.size(), 1u);
}

TEST(DaemonRouting, LoadRejectsMissingFile) {
  EXPECT_THROW(load_daemon_config("/nonexistent/nope.json"),
               std::invalid_argument);
}

}  // namespace
}  // namespace agar::daemon
