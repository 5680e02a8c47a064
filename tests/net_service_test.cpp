// The dispatcher's determinism contract, exercised over real loopback
// sockets: dispatched run_batch must be bitwise identical to
// in-process run_batch for 1, 2, and 3 shards — including when a
// shard is killed mid-batch (connection severed after a few partials)
// and when a shard duplicates every partial. Failures may only move
// blocks between shards, never change results.
//
// Every count asserted here follows from the fault configuration (how
// many partials a shard severs after or duplicates, whether a port
// listens), not from thread scheduling, with one timing assumption:
// MatchesInProcessForOneTwoAndThreeShards expects connection_failures
// == 0, so neither the 2 s connect timeout nor the 20 s I/O timeout of
// config_for may fire on loopback. A machine stalled that long fails
// that count while the reports still match.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "api/engine.h"
#include "api/registry.h"
#include "net/service.h"
#include "report_equal.h"

namespace cbtc {
namespace {

using api::batch_report;
using api::dispatch_config;
using api::dynamic_batch_report;
using api::engine;
using api::lifetime_batch_report;
using api::shard_dispatcher;

/// A fleet of in-process servers, each on its own ephemeral loopback
/// port with its own serving thread.
class shard_fleet {
 public:
  explicit shard_fleet(const std::vector<net::serve_config>& configs) {
    for (net::serve_config cfg : configs) {
      cfg.bind_address = "127.0.0.1";
      cfg.port = 0;
      servers_.push_back(std::make_unique<net::scenario_server>(cfg));
      endpoints_.push_back({"127.0.0.1", servers_.back()->port()});
      threads_.emplace_back([s = servers_.back().get()] { s->run(); });
    }
  }

  ~shard_fleet() {
    for (auto& s : servers_) s->stop();
    for (auto& t : threads_) t.join();
  }

  [[nodiscard]] const std::vector<api::endpoint>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::unique_ptr<net::scenario_server>> servers_;
  std::vector<std::thread> threads_;
  std::vector<api::endpoint> endpoints_;
};

/// Small but non-trivial scenario: several blocks, every metric on.
api::scenario_spec test_spec() {
  api::scenario_spec spec = *api::find_scenario("paper_table1");
  spec.deploy.nodes = 40;
  spec.metrics.stretch_samples = 32;
  return spec;
}

dispatch_config config_for(const shard_fleet& fleet) {
  dispatch_config cfg;
  cfg.endpoints = fleet.endpoints();
  cfg.shard_threads = 2;
  cfg.connect_timeout_ms = 2000;
  cfg.io_timeout_ms = 20000;
  cfg.backoff_base_ms = 10;
  // Small requests so multi-shard runs actually interleave and a
  // killed connection leaves work to re-dispatch.
  cfg.blocks_per_request = 1;
  return cfg;
}

TEST(ShardDispatchTest, MatchesInProcessForOneTwoAndThreeShards) {
  const api::scenario_spec spec = test_spec();
  const api::seed_range seeds{0, 72};  // 5 blocks (72 = 4.5 * 16)
  const engine eng;
  const batch_report reference = eng.run_batch(spec, seeds, 2);

  for (const std::size_t shards : {1u, 2u, 3u}) {
    shard_fleet fleet{std::vector<net::serve_config>(shards)};
    shard_dispatcher dispatcher(config_for(fleet));
    const batch_report dispatched = dispatcher.run_batch(spec, seeds);
    EXPECT_TRUE(api::reports_equal(reference, dispatched));
    EXPECT_EQ(dispatcher.stats().blocks, 5u) << shards << " shards";
    EXPECT_EQ(dispatcher.stats().connection_failures, 0u) << shards << " shards";
  }
}

TEST(ShardDispatchTest, ShardKilledMidBatchDegradesThroughputNotResults) {
  const api::scenario_spec spec = test_spec();
  const api::seed_range seeds{0, 72};
  const engine eng;
  const batch_report reference = eng.run_batch(spec, seeds, 2);

  // Three shards, each severing its first connection after a single
  // partial — no done frame, exactly like a crash mid-request. The
  // first claim of the batch takes blocks 0-2 (all five are pending)
  // and is that worker's first connection, so a kill strands claimed
  // blocks however the workers happen to be scheduled.
  net::serve_config faulty;
  faulty.drop_after_partials = 1;
  faulty.drop_connections = 1;
  shard_fleet fleet({faulty, faulty, faulty});

  dispatch_config cfg = config_for(fleet);
  cfg.blocks_per_request = 3;  // a kill strands multiple claimed blocks
  shard_dispatcher dispatcher(cfg);
  const batch_report dispatched = dispatcher.run_batch(spec, seeds);
  EXPECT_TRUE(api::reports_equal(reference, dispatched));
  // The retry path must actually have run.
  EXPECT_GE(dispatcher.stats().connection_failures, 1u);
  EXPECT_GE(dispatcher.stats().requeued_blocks, 1u);
}

TEST(ShardDispatchTest, DuplicatePartialsAreSuppressed) {
  const api::scenario_spec spec = test_spec();
  const api::seed_range seeds{0, 48};  // 3 blocks
  const engine eng;
  const batch_report reference = eng.run_batch(spec, seeds, 2);

  net::serve_config duplicating;
  duplicating.duplicate_partials = true;
  shard_fleet fleet({duplicating});
  shard_dispatcher dispatcher(config_for(fleet));
  const batch_report dispatched = dispatcher.run_batch(spec, seeds);
  EXPECT_TRUE(api::reports_equal(reference, dispatched));
  EXPECT_EQ(dispatcher.stats().duplicate_partials, 3u);
}

TEST(ShardDispatchTest, AllShardsDeadFailsWithBoundedRetries) {
  // Nothing listens on this port (a listener bound then destroyed).
  std::uint16_t dead_port = 0;
  {
    net::tcp_listener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  dispatch_config cfg;
  cfg.endpoints = {{"127.0.0.1", dead_port}};
  cfg.connect_timeout_ms = 200;
  cfg.io_timeout_ms = 500;
  cfg.backoff_base_ms = 1;
  cfg.max_endpoint_failures = 2;
  shard_dispatcher dispatcher(cfg);
  EXPECT_THROW((void)dispatcher.run_batch(test_spec(), {0, 32}), std::runtime_error);
  EXPECT_GE(dispatcher.stats().connection_failures, 1u);
}

TEST(ShardDispatchTest, DynamicAndLifetimeBatchesMatchInProcess) {
  const api::dynamic_scenario dyn = *api::find_dynamic_scenario("mobile_churn");
  api::scenario_spec spec = dyn.scenario;
  spec.deploy.nodes = 30;
  api::sim_spec sim = dyn.sim;
  sim.horizon = std::min(sim.horizon, 40.0);
  const api::seed_range seeds{0, 20};  // 2 blocks

  const engine eng;
  shard_fleet fleet{std::vector<net::serve_config>(2)};
  shard_dispatcher dispatcher(config_for(fleet));

  const dynamic_batch_report ref_dyn = eng.run_batch(spec, sim, seeds, 2);
  const dynamic_batch_report got_dyn = dispatcher.run_batch(spec, sim, seeds);
  EXPECT_TRUE(api::reports_equal(ref_dyn, got_dyn));

  api::lifetime_spec life;
  life.battery_rounds = 20.0;
  life.flows = 10;
  life.max_rounds = 2000;
  const lifetime_batch_report ref_life = eng.run_batch(test_spec(), life, seeds, 2);
  const lifetime_batch_report got_life = dispatcher.run_batch(test_spec(), life, seeds);
  EXPECT_TRUE(api::reports_equal(ref_life, got_life));
}

// A request the shard's parser rejects (a 0-node lifetime batch, which
// would divide by zero in run_lifetime, or one over the work budget,
// which would run for ever on a field where nobody dies) comes back as
// an error frame; the shard keeps serving and the next batch matches
// in-process.
TEST(ShardDispatchTest, RejectedRequestLeavesTheShardServing) {
  shard_fleet fleet{std::vector<net::serve_config>(1)};
  dispatch_config cfg = config_for(fleet);
  cfg.max_block_retries = 0;  // fail on the first error frame, naming it
  shard_dispatcher dispatcher(cfg);
  api::lifetime_spec life;
  life.battery_rounds = 20.0;
  life.max_rounds = 2000;
  const api::seed_range seeds{0, 20};
  const auto expect_rejected = [&](const api::scenario_spec& spec,
                                   const api::lifetime_spec& bad_life, const std::string& field) {
    try {
      (void)dispatcher.run_batch(spec, bad_life, seeds);
      ADD_FAILURE() << "a batch with a bad " << field << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };

  api::scenario_spec empty = test_spec();
  empty.deploy.nodes = 0;
  expect_rejected(empty, life, "scenario.deployment.nodes");
  api::lifetime_spec endless = life;
  endless.battery_rounds = 1e300;
  endless.max_rounds = 1'000'000'000'000;
  expect_rejected(test_spec(), endless, "lifetime.max_rounds");
  api::lifetime_spec flooded = life;
  flooded.flows = 1'000'000'000'000;
  expect_rejected(test_spec(), flooded, "lifetime.flows");
  api::lifetime_spec off_field = life;
  off_field.convergecast = true;
  off_field.sink = 40;  // test_spec() deploys 40 nodes
  expect_rejected(test_spec(), off_field, "run_lifetime: convergecast sink 40");

  const lifetime_batch_report reference = engine().run_batch(test_spec(), life, seeds, 2);
  EXPECT_TRUE(api::reports_equal(reference, dispatcher.run_batch(test_spec(), life, seeds)));
}

TEST(ShardDispatchTest, EndpointParsing) {
  const api::endpoint ep = api::parse_endpoint("example.com:8080");
  EXPECT_EQ(ep.host, "example.com");
  EXPECT_EQ(ep.port, 8080);
  const auto list = api::parse_endpoint_list("a:1,b:2,c:3");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].host, "b");
  EXPECT_EQ(list[2].port, 3);
  EXPECT_THROW((void)api::parse_endpoint("no-port"), std::invalid_argument);
  EXPECT_THROW((void)api::parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW((void)api::parse_endpoint("host:99999"), std::invalid_argument);
  EXPECT_THROW((void)api::parse_endpoint_list(""), std::invalid_argument);
}

}  // namespace
}  // namespace cbtc
