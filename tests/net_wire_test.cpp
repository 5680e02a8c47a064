// Wire-format contract: frames and messages must round-trip exactly
// (the dispatcher's bitwise-determinism rests on it), the report field
// tables must keep the wire bytes, and malformed input — truncated
// frames, oversized prefixes, mutated or deeply nested JSON,
// out-of-range integers, version-mismatched handshakes — must be
// rejected with a typed error, never accepted or crashed on.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "api/serialize.h"
#include "api/wire.h"
#include "net/frame.h"
#include "net/socket.h"
#include "report_equal.h"

namespace cbtc {
namespace {

using api::batch_report;
using api::dynamic_batch_report;
using api::engine;
using api::lifetime_batch_report;
namespace wire = api::wire;

TEST(WireTest, BatchReportPartialRoundTripsExactly) {
  api::scenario_spec spec = *api::find_scenario("paper_table1");
  spec.deploy.nodes = 40;
  const engine eng;
  batch_report original;
  eng.run_batch_blocks(spec, {0, 20}, {0, 2}, 1,
                       [&](std::uint64_t block, const batch_report& partial) {
                         const std::string payload = wire::encode_block_partial(block, partial);
                         batch_report decoded;
                         const std::uint64_t got =
                             wire::decode_block_partial(wire::decode_message(payload), decoded);
                         EXPECT_EQ(got, block);
                         EXPECT_TRUE(api::reports_equal(partial, decoded));
                         api::merge(original, partial);
                       });
  EXPECT_EQ(original.runs, 20u);
}

// ---- the field tables: golden frames, round trips, accumulate --------

/// Hand-set static runs with a distinct value in every field
/// batch_report::accumulate reads. Run 0 opens every gate.
api::run_report static_run(int i) {
  api::run_report r;
  r.edges = 100 + i;
  r.avg_degree = 3.25 + i;
  r.avg_radius = 401.5 + i;
  r.max_radius = 612.75 + i;
  r.avg_power = 150000.5 + i;
  r.boundary_nodes = 7 + i;
  r.power_stretch = 1.125 + i;
  r.power_stretch_max = 2.375 + i;
  r.hop_stretch = 1.625 + i;
  r.hop_stretch_max = 4.5 + i;
  r.interference_mean = 9.25 + i;
  r.cut_vertices = 2 + i;
  r.removed_edges = 31 + i;
  r.invariants.connectivity_preserved = i == 1;
  r.has_protocol_stats = i != 2;
  r.protocol_stats = {.broadcasts = 500u + i,
                      .unicasts = 60,
                      .deliveries = 4100u + i,
                      .drops = 3,
                      .tx_energy = 20000000.0 + i};
  r.completion_time = 12.5 + i;
  return r;
}

/// Hand-set dynamic runs, same idea; run 0 opens every gate (it had
/// disruptions, took samples and ran traffic).
api::dynamic_report dynamic_run(int i) {
  api::dynamic_report r;
  r.initial_connectivity_ok = i != 0;
  r.final_connectivity_ok = i >= 2;
  r.partitioned = i < 3;
  r.unrepaired = 5 + i;
  r.live_nodes = 30 - i;
  r.joins = 20 + i;
  r.leaves = 13 + i;
  r.achanges = 17 + i;
  r.regrows = 4 + i;
  r.prunes = 9 + i;
  r.beacons = 1200 + i;
  r.channel = {.broadcasts = 900u + i,
               .unicasts = 80u + i,
               .deliveries = 7000u + i,
               .drops = 11u + i,
               .tx_energy = 8000000.0 + i};
  r.disruptions = i < 3 ? 2 + i : 0;
  r.repair_latency_mean = 0.75 + i;
  r.repair_latency_max = 1.5 + i;
  r.field_disruptions = 1 + i;
  r.field_downtime = 3.25 + i;
  r.time_to_partition = 40.5 + i;
  if (i != 4) {
    r.samples.push_back({.t = 1.0, .edges = 99});
    r.samples.push_back(
        {.t = 2.0, .edges = 45u + i, .avg_degree = 2.75 + i, .avg_radius = 350.25 + i});
  }
  r.traffic.enabled = i < 4;
  r.traffic.generated = 400 + i;
  r.traffic.delivered = 350 + i;
  r.traffic.queue_drops = 3 + i;
  r.traffic.no_route_drops = 2;
  r.traffic.dead_drops = 1;
  r.traffic.queue_peak = 7 + 2 * i;
  r.traffic.delivery_ratio = 0.5 + 0.125 * i;
  r.traffic.throughput = 6.25 + i;
  r.traffic.avg_delay = 0.375 + i;
  r.traffic.forwarding_energy = 900000.0 + i;
  r.traffic.energy_stddev = 12.5 + i;
  return r;
}

api::lifetime_report lifetime_run(int i) {
  return {.first_death = 120.5 + i, .quarter_dead = 300.25 + i, .field_partition = 512.75 + i};
}

/// Block partials of 3 static, 5 dynamic and 2 lifetime hand-set runs:
/// counts, gates and summaries all take distinct values.
batch_report golden_static() {
  batch_report b;
  for (int i = 0; i < 3; ++i) b.accumulate(static_run(i));
  return b;
}

dynamic_batch_report golden_dynamic() {
  dynamic_batch_report b;
  for (int i = 0; i < 5; ++i) b.accumulate(dynamic_run(i));
  return b;
}

lifetime_batch_report golden_lifetime() {
  lifetime_batch_report b;
  for (int i = 0; i < 2; ++i) b.accumulate(lifetime_run(i));
  return b;
}

// The partials above as encoded by the per-struct encoders that the
// field tables replaced: the tables must keep the wire bytes.
constexpr std::string_view golden_static_frame = R"({
  "type": "block_partial",
  "mode": "static",
  "block": 2,
  "report": {
    "runs": 3,
    "connectivity_failures": 2,
    "edges": [3, 303, 30605, 100, 102],
    "degree": [3, 12.75, 56.1875, 3.25, 5.25],
    "radius": [3, 1207.5, 486020.75, 401.5, 403.5],
    "max_radius": [3, 1841.25, 1130069.1875, 612.75, 614.75],
    "tx_power": [3, 450004.5, 67501350008.75, 150000.5, 150002.5],
    "boundary": [3, 24, 194, 7, 9],
    "power_stretch": [3, 6.375, 15.546875, 1.125, 3.125],
    "power_stretch_max": [3, 10.125, 36.171875, 2.375, 4.375],
    "hop_stretch": [3, 7.875, 22.671875, 1.625, 3.625],
    "hop_stretch_max": [3, 16.5, 92.75, 4.5, 6.5],
    "interference": [3, 30.75, 317.1875, 9.25, 11.25],
    "cut_vertices": [3, 9, 29, 2, 4],
    "removed_edges": [3, 96, 3074, 31, 33],
    "has_protocol_stats": true,
    "messages": [2, 1121, 628321, 560, 561],
    "deliveries": [2, 8201, 33628201, 4100, 4101],
    "tx_energy": [2, 40000001, 800000040000001, 2e+07, 20000001],
    "completion_time": [2, 26, 338.5, 12.5, 13.5]
  }
})";

constexpr std::string_view golden_dynamic_frame = R"({
  "type": "block_partial",
  "mode": "dynamic",
  "block": 5,
  "report": {
    "runs": 5,
    "initial_connectivity_failures": 1,
    "final_connectivity_failures": 2,
    "partitioned_runs": 3,
    "unrepaired_disruptions": 35,
    "broadcasts": [5, 4510, 4068030, 900, 904],
    "unicasts": [5, 410, 33630, 80, 84],
    "deliveries": [5, 35010, 245140030, 7000, 7004],
    "drops": [5, 65, 855, 11, 15],
    "tx_energy": [5, 40000010, 320000160000030, 8e+06, 8000004],
    "joins": [5, 110, 2430, 20, 24],
    "leaves": [5, 75, 1135, 13, 17],
    "achanges": [5, 95, 1815, 17, 21],
    "regrows": [5, 30, 190, 4, 8],
    "prunes": [5, 55, 615, 9, 13],
    "beacons": [5, 6010, 7224030, 1200, 1204],
    "disruptions": [5, 9, 29, 0, 4],
    "repair_latency": [3, 5.25, 11.1875, 0.75, 2.75],
    "repair_latency_max": [3, 7.5, 20.75, 1.5, 3.5],
    "field_disruptions": [5, 15, 55, 1, 5],
    "field_downtime": [5, 26.25, 147.8125, 3.25, 7.25],
    "time_to_partition": [5, 212.5, 9041.25, 40.5, 44.5],
    "final_edges": [4, 186, 8654, 45, 48],
    "final_degree": [4, 17, 77.25, 2.75, 5.75],
    "final_radius": [4, 1407, 494917.25, 350.25, 353.25],
    "live_nodes": [5, 140, 3930, 26, 30],
    "traffic_runs": 4,
    "traffic_generated": [4, 1606, 644814, 400, 403],
    "traffic_delivered": [4, 1406, 494214, 350, 353],
    "traffic_delivery_ratio": [4, 2.75, 1.96875, 0.5, 0.875],
    "traffic_throughput": [4, 31, 245.25, 6.25, 9.25],
    "traffic_delay": [4, 7.5, 19.0625, 0.375, 3.375],
    "traffic_energy": [4, 3600006, 3240010800014, 9e+05, 900003],
    "traffic_energy_spread": [4, 56, 789, 12.5, 15.5],
    "traffic_drops": [4, 30, 230, 6, 9],
    "traffic_queue_peak": [4, 40, 420, 7, 13]
  }
})";

constexpr std::string_view golden_lifetime_frame = R"({
  "type": "block_partial",
  "mode": "lifetime",
  "block": 9,
  "report": {
    "runs": 2,
    "first_death": [2, 242, 29282.5, 120.5, 121.5],
    "quarter_dead": [2, 601.5, 180901.625, 300.25, 301.25],
    "field_partition": [2, 1026.5, 526851.625, 512.75, 513.75]
  }
})";

TEST(WireTest, GoldenPartialFramesAreByteIdentical) {
  EXPECT_EQ(wire::encode_block_partial(2, golden_static()), golden_static_frame);
  EXPECT_EQ(wire::encode_block_partial(5, golden_dynamic()), golden_dynamic_frame);
  EXPECT_EQ(wire::encode_block_partial(9, golden_lifetime()), golden_lifetime_frame);
}

/// The decoded partial must equal the encoded one: a member missing
/// from its field table comes back at its default and fails here.
TEST(WireTest, GoldenPartialsRoundTripExactly) {
  const auto round_trip = [](const auto& original) {
    std::remove_cvref_t<decltype(original)> decoded;
    EXPECT_EQ(wire::decode_block_partial(
                  wire::decode_message(wire::encode_block_partial(7, original)), decoded),
              7u);
    EXPECT_TRUE(api::reports_equal(decoded, original));
  };
  round_trip(golden_static());
  round_trip(golden_dynamic());
  round_trip(golden_lifetime());
}

/// One run with every accumulate gate open must reach every summary
/// of the field table: a summary accumulate never fills fails here.
TEST(WireTest, AccumulateFillsEverySummary) {
  const auto expect_every_summary_once = [](const auto& batch) {
    api::for_each_field(
        [](std::string_view name, const auto& field) {
          if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>, exp::summary>) {
            EXPECT_EQ(field.count(), 1u) << name;
          }
        },
        batch);
  };
  batch_report s;
  s.accumulate(static_run(0));
  expect_every_summary_once(s);
  dynamic_batch_report d;
  d.accumulate(dynamic_run(0));
  expect_every_summary_once(d);
  lifetime_batch_report l;
  l.accumulate(lifetime_run(0));
  expect_every_summary_once(l);
}

TEST(WireTest, PartialModeTagIsChecked) {
  lifetime_batch_report life;
  const std::string payload = wire::encode_block_partial(0, life);
  batch_report wrong;
  EXPECT_THROW(wire::decode_block_partial(wire::decode_message(payload), wrong),
               std::invalid_argument);
}

TEST(WireTest, BatchRequestRoundTripsEveryMode) {
  wire::batch_request req;
  req.scenario = *api::find_scenario("paper_table1");
  req.seeds = {5, 1000};
  req.blocks = {3, 17};
  req.threads = 4;

  for (const wire::batch_mode mode :
       {wire::batch_mode::static_runs, wire::batch_mode::dynamic_runs,
        wire::batch_mode::lifetime_runs}) {
    req.mode = mode;
    req.sim.horizon = 250.0;
    req.lifetime.battery_rounds = 17.5;
    const wire::batch_request back =
        wire::decode_batch_request(wire::decode_message(wire::encode_batch_request(req)));
    EXPECT_EQ(back.mode, mode);
    EXPECT_EQ(back.seeds.first, 5u);
    EXPECT_EQ(back.seeds.count, 1000u);
    EXPECT_EQ(back.blocks.first, 3u);
    EXPECT_EQ(back.blocks.count, 17u);
    EXPECT_EQ(back.threads, 4u);
    EXPECT_EQ(back.scenario.deploy.nodes, req.scenario.deploy.nodes);
    EXPECT_EQ(back.scenario.base_seed, req.scenario.base_seed);
    EXPECT_EQ(back.scenario.cbtc.alpha, req.scenario.cbtc.alpha);
    if (mode == wire::batch_mode::dynamic_runs) EXPECT_EQ(back.sim.horizon, 250.0);
    if (mode == wire::batch_mode::lifetime_runs) {
      EXPECT_EQ(back.lifetime.battery_rounds, 17.5);
    }
  }
}

TEST(WireTest, HandshakeVersionMismatchIsRejected) {
  EXPECT_NO_THROW(wire::check_hello(wire::decode_message(wire::encode_hello())));
  EXPECT_THROW(wire::check_hello(wire::decode_message(
                   R"({"type": "hello", "protocol": "cbtc-wire", "version": 2})")),
               std::invalid_argument);
  EXPECT_THROW(wire::check_hello(wire::decode_message(
                   R"({"type": "hello", "protocol": "other-wire", "version": 1})")),
               std::invalid_argument);
  // Not a hello at all.
  EXPECT_THROW(wire::check_hello(wire::decode_message(R"({"type": "done", "blocks": 0})")),
               std::invalid_argument);
}

TEST(WireTest, ControlMessagesRoundTrip) {
  EXPECT_EQ(wire::decode_done(wire::decode_message(wire::encode_done(42))), 42u);
  EXPECT_EQ(wire::decode_error(wire::decode_message(wire::encode_error("boom"))), "boom");
  EXPECT_EQ(wire::decode_message(wire::encode_shutdown()).type, wire::message_type::shutdown);
}

TEST(WireTest, MalformedMessagesAreRejected) {
  EXPECT_THROW(wire::decode_message("not json"), std::invalid_argument);
  EXPECT_THROW(wire::decode_message("[1, 2, 3]"), std::invalid_argument);
  EXPECT_THROW(wire::decode_message(R"({"type": "nonsense"})"), std::invalid_argument);
  // A thread count past 32 bits is rejected, not cast down.
  wire::batch_request req;
  req.threads = 3;
  std::string frame = wire::encode_batch_request(req);
  frame.replace(frame.find(R"("threads": 3)"), 12, R"("threads": 4294967299)");
  EXPECT_THROW((void)wire::decode_batch_request(wire::decode_message(frame)),
               std::invalid_argument);
  // A repeated key is rejected in every frame, not read as its first.
  EXPECT_THROW(wire::decode_message(R"({"type": "done", "blocks": 1, "blocks": 2})"),
               std::invalid_argument);
  // Unknown keys are rejected, not ignored (strict-parse policy).
  EXPECT_THROW((void)wire::decode_done(wire::decode_message(
                   R"({"type": "done", "blocks": 1, "extra": true})")),
               std::invalid_argument);
  // cbtc_serve decodes its first frame before any handshake check, so
  // nesting must fail cleanly: 20,000 brackets is a 20 KB frame, far
  // below max_frame_bytes, and deep enough to exhaust the stack of an
  // uncapped recursive parser.
  EXPECT_THROW((void)wire::decode_message(std::string(20000, '[')), std::invalid_argument);
  EXPECT_THROW((void)wire::decode_message(R"({"type": "hello", "x": )" +
                                          std::string(20000, '[') + std::string(20000, ']') + "}"),
               std::invalid_argument);
}

/// Decodes `frame` with its first `from` replaced by `to`; the partial
/// must be rejected.
template <class Report>
void expect_edit_rejected(std::string_view frame, std::string_view from, std::string_view to) {
  std::string edited(frame);
  const std::size_t at = edited.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  edited.replace(at, from.size(), to);
  Report out;
  EXPECT_THROW((void)wire::decode_block_partial(wire::decode_message(edited), out),
               std::invalid_argument)
      << to;
}

/// A uint64 cannot hold 2^64 or more: in every partial mode a count or
/// a summary count that large is an error, never a wrapped value.
TEST(WireTest, OutOfRangeCountsInPartialsAreRejected) {
  expect_edit_rejected<batch_report>(golden_static_frame, R"("runs": 3)",
                                     R"("runs": 18446744073709551616)");
  expect_edit_rejected<batch_report>(golden_static_frame, R"("edges": [3,)", R"("edges": [1e30,)");
  expect_edit_rejected<dynamic_batch_report>(golden_dynamic_frame, R"("traffic_runs": 4)",
                                             R"("traffic_runs": 1e30)");
  expect_edit_rejected<dynamic_batch_report>(golden_dynamic_frame, R"("joins": [5,)",
                                             R"("joins": [18446744073709551616,)");
  expect_edit_rejected<lifetime_batch_report>(golden_lifetime_frame, R"("runs": 2)",
                                              R"("runs": 1e30)");
  expect_edit_rejected<lifetime_batch_report>(golden_lifetime_frame, R"("first_death": [2,)",
                                              R"("first_death": [1e30,)");
}

/// Every field-table key is required (a missing count or flag is an
/// error, not a default) and a key outside the table is rejected.
TEST(WireTest, PartialKeysMustMatchTheFieldTable) {
  expect_edit_rejected<batch_report>(golden_static_frame, "\"connectivity_failures\": 2,", "");
  expect_edit_rejected<batch_report>(golden_static_frame, "\"has_protocol_stats\": true,", "");
  expect_edit_rejected<dynamic_batch_report>(golden_dynamic_frame, "\"traffic_runs\": 4,", "");
  expect_edit_rejected<lifetime_batch_report>(golden_lifetime_frame, "\"runs\": 2,",
                                              "\"runs\": 2, \"extra\": 1,");
}

/// Deterministic mutation fuzz over every decoder a peer or a file can
/// reach: block partials of all three modes, a batch_request, a
/// scenario file and the hello handshake. Each mutant must decode or throw
/// std::invalid_argument; anything else (another exception, a crash,
/// a sanitizer report) fails.
TEST(WireTest, DecoderMutationFuzz) {
  wire::batch_request req;
  req.mode = wire::batch_mode::dynamic_runs;
  req.scenario = *api::find_scenario("paper_table1");
  req.seeds = {3, 40};
  req.blocks = {1, 2};
  api::scenario_file file;
  file.scenario = req.scenario;
  file.sim = req.sim;
  file.lifetime = req.lifetime;
  const auto partial = [](auto report) {
    return [report](const std::string& t) mutable {
      (void)wire::decode_block_partial(wire::decode_message(t), report);
    };
  };
  const std::vector<std::pair<std::string, std::function<void(const std::string&)>>> inputs = {
      {std::string(golden_static_frame), partial(batch_report{})},
      {std::string(golden_dynamic_frame), partial(dynamic_batch_report{})},
      {std::string(golden_lifetime_frame), partial(lifetime_batch_report{})},
      {wire::encode_batch_request(req),
       [](const std::string& t) { (void)wire::decode_batch_request(wire::decode_message(t)); }},
      {api::to_json(file), [](const std::string& t) { (void)api::parse_scenario_json(t); }},
      {wire::encode_hello(),
       [](const std::string& t) { wire::check_hello(wire::decode_message(t)); }},
  };
  const std::vector<std::string> numbers = {"1e30", "-1", "-1e30", "18446744073709551616",
                                            "18446744073709551615", "1e308", "-0", "4.5"};
  const std::vector<std::size_t> depths = {1, 63, 64, 65, 20000};
  std::mt19937 rng(20010601);
  // [begin, end) of the number literal at or after `from` (wrapping).
  const auto number_at = [](const std::string& t, std::size_t from) {
    std::size_t b = t.find_first_of("0123456789", from);
    if (b == std::string::npos) b = t.find_first_of("0123456789");
    while (b > 0 && std::string_view("0123456789.eE+-").find(t[b - 1]) != std::string::npos) --b;
    std::size_t e = b;
    while (e < t.size() && std::string_view("0123456789.eE+-").find(t[e]) != std::string::npos) ++e;
    return std::pair{b, e};
  };
  int decoded = 0;
  for (const auto& [text, decode] : inputs) {
    for (int i = 0; i < 400; ++i) {
      std::string t = text;
      const std::size_t pos = rng() % t.size();
      switch (rng() % 5) {
        case 0: t.resize(pos); break;
        case 1: t[pos] = static_cast<char>(rng() % 256); break;
        case 2: t.insert(pos, 1, static_cast<char>(rng() % 256)); break;
        case 3: {
          const auto [b, e] = number_at(t, pos);
          t.replace(b, e - b, numbers[rng() % numbers.size()]);
          break;
        }
        default: {
          const auto [b, e] = number_at(t, pos);
          const std::size_t depth = depths[rng() % depths.size()];
          t = t.substr(0, b) + std::string(depth, '[') + t.substr(b, e - b) +
              std::string(depth, ']') + t.substr(e);
        }
      }
      try {
        decode(t);
        ++decoded;
      } catch (const std::invalid_argument&) {
        // The expected outcome for most mutants.
      }
    }
  }
  EXPECT_GT(decoded, 0);  // some mutants stay well-formed (e.g. -0, 4.5 in a double)
}

// ---- frame transport over a loopback socket pair -------------------

struct socket_pair {
  net::tcp_listener listener{"127.0.0.1", 0};
  net::tcp_stream client;
  net::tcp_stream server;

  socket_pair() {
    std::thread t([this] { client = net::tcp_stream::connect("127.0.0.1", listener.port(), 2000); });
    auto accepted = listener.accept(2000);
    t.join();
    if (accepted) server = std::move(*accepted);
  }
};

TEST(FrameTest, RoundTripsPayloads) {
  socket_pair pair;
  ASSERT_TRUE(pair.server.valid());
  for (const std::string payload : {std::string(""), std::string("{}"),
                                    std::string(1000, 'x'), std::string("\0\x01\xff binary", 10)}) {
    net::write_frame(pair.client, payload, 2000);
    EXPECT_EQ(net::read_frame(pair.server, 2000), payload);
  }
}

TEST(FrameTest, OversizedFrameIsRejectedBeforeAllocation) {
  socket_pair pair;
  ASSERT_TRUE(pair.server.valid());
  // A length prefix claiming 256 MiB: read_frame must refuse without
  // trying to read (or allocate) the body.
  const unsigned char prefix[4] = {0x10, 0x00, 0x00, 0x00};
  pair.client.send_all(prefix, sizeof(prefix), 2000);
  EXPECT_THROW((void)net::read_frame(pair.server, 2000), net::net_error);
  EXPECT_THROW((void)net::encode_frame(std::string(net::max_frame_bytes + 1, 'x')),
               net::net_error);
}

TEST(FrameTest, TruncatedFrameSurfacesAsNetError) {
  socket_pair pair;
  ASSERT_TRUE(pair.server.valid());
  // Claim 100 bytes, deliver 10, hang up.
  const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x64};
  pair.client.send_all(prefix, sizeof(prefix), 2000);
  pair.client.send_all("0123456789", 10, 2000);
  pair.client.close();
  EXPECT_THROW((void)net::read_frame(pair.server, 2000), net::net_error);
}

TEST(FrameTest, SlowFrameTimesOut) {
  socket_pair pair;
  ASSERT_TRUE(pair.server.valid());
  const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x10};
  pair.client.send_all(prefix, sizeof(prefix), 2000);
  // Body never arrives: the read must give up in bounded time.
  EXPECT_THROW((void)net::read_frame(pair.server, 100), net::timeout_error);
}

}  // namespace
}  // namespace cbtc
