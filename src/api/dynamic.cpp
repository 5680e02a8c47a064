// engine::run_dynamic / run_lifetime — the dynamic-simulation layer.
//
// This file is the only place where the façade stands up the event
// simulator, the shared medium, mobility drivers, the failure
// injector, and the per-node Section 4 reconfiguration agents; benches
// and examples describe dynamic workloads purely as scenario_spec +
// sim_spec values.
//
// The live max-power graph G_R is never rebuilt from scratch during a
// run: a graph::live_neighbor_index mirrors the medium through move /
// liveness hooks (each mobility tick or crash/restart costs
// O(neighborhood) instead of O(n * k)), and an event-driven union-find
// connectivity monitor on top of it yields exact disruption windows —
// connectivity is re-evaluated at every event timestamp that changed
// the index or an agent's neighbor table, not at sample cadence.
#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/engine.h"
#include "geom/angle.h"
#include "graph/live_index.h"
#include "graph/metrics.h"
#include "graph/shortest_path.h"
#include "graph/traversal.h"
#include "proto/reconfig.h"
#include "sim/failure.h"
#include "sim/medium.h"
#include "sim/mobility.h"
#include "sim/partition.h"
#include "sim/simulator.h"
#include "sim/traffic.h"
#include "util/parallel.h"

namespace cbtc::api {
namespace {

/// Liveness-restricted view of the network at one instant.
struct live_state {
  graph::undirected_graph topology;  ///< live agents' symmetric neighbor closure
  graph::undirected_graph gr;        ///< live G_R (snapshot of the incremental index)
  std::vector<bool> up;
  std::size_t live{0};
};

/// The topology is the closure mirror's live graph (an O(live
/// adjacency) filtered copy); tests/proto_reconfig_test.cpp checks the
/// mirror against a re-read of the agents' tables.
live_state capture_live_state(const graph::live_neighbor_index& index,
                              const graph::closure_mirror& mirror) {
  const std::size_t n = mirror.num_nodes();
  live_state s{mirror.live_graph(), index.graph(), std::vector<bool>(n), index.live_count()};
  for (graph::node_id u = 0; u < n; ++u) s.up[u] = index.is_live(u);
  return s;
}

dynamic_sample measure(const live_state& s, bool field_connected,
                       const std::vector<geom::vec2>& positions, double max_range, double t,
                       const util::thread_pool& pool) {
  dynamic_sample out;
  out.t = t;
  out.live_nodes = s.live;
  out.edges = s.topology.num_edges();
  out.avg_degree =
      s.live == 0 ? 0.0 : 2.0 * static_cast<double>(out.edges) / static_cast<double>(s.live);
  // Block-ordered reduction: avg_radius is bitwise identical for any
  // intra-thread count.
  const double radius_sum = pool.reduce<double>(
      s.up.size(), 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double sum = 0.0;
        for (std::size_t u = lo; u < hi; ++u) {
          if (s.up[u]) {
            sum += graph::node_radius(s.topology, positions, static_cast<graph::node_id>(u),
                                      max_range);
          }
        }
        return sum;
      },
      [](double& total, const double& part) { total += part; });
  out.avg_radius = s.live == 0 ? 0.0 : radius_sum / static_cast<double>(s.live);
  out.connectivity_ok = graph::same_connectivity(s.topology, s.gr, pool);
  out.field_connected = field_connected;
  return out;
}

bool alive_subgraph_connected(const graph::undirected_graph& g, const std::vector<bool>& alive) {
  graph::undirected_graph live(g.num_nodes());
  graph::node_id first_alive = graph::invalid_node;
  std::size_t alive_count = 0;
  for (graph::node_id u = 0; u < g.num_nodes(); ++u) {
    if (alive[u]) {
      ++alive_count;
      if (first_alive == graph::invalid_node) first_alive = u;
    }
  }
  if (alive_count <= 1) return true;
  for (const graph::edge& e : g.edges()) {
    if (alive[e.u] && alive[e.v]) live.add_edge(e.u, e.v);
  }
  const auto comps = graph::connected_components(live);
  for (graph::node_id u = 0; u < g.num_nodes(); ++u) {
    if (alive[u] && !comps.same_component(u, first_alive)) return false;
  }
  return true;
}

/// Region grid side (g x g regions) for a dynamic run; 0 selects the
/// serial single-queue reference. The partitioned engine requires a
/// positive lookahead (the channel's fixed base delay) and a draw-free
/// delivery path — per-delivery channel randomness (drop / dup /
/// jitter) or direction noise would be consumed in engine-dependent
/// order, so such runs stay on the reference path. All registry
/// presets are draw-free.
std::uint32_t region_grid_side(const scenario_spec& spec, const sim_spec& sim_cfg,
                               std::size_t nodes) {
  const radio::channel_params& ch = spec.protocol.channel;
  if (ch.base_delay <= 0.0 || ch.drop_prob > 0.0 || ch.dup_prob > 0.0 || ch.jitter_max > 0.0 ||
      spec.protocol.direction_noise > 0.0) {
    return 0;
  }
  std::uint32_t regions = sim_cfg.partition.regions;
  if (regions == 0) {
    if (nodes < sim_cfg.partition.min_nodes) return 0;
    regions = std::clamp<std::uint32_t>(static_cast<std::uint32_t>(nodes / 4096), 4U, 64U);
  }
  const auto side = static_cast<std::uint32_t>(std::sqrt(static_cast<double>(regions)));
  return side >= 2 ? side : 0;
}

}  // namespace

dynamic_report engine::run_dynamic(const scenario_spec& spec, const sim_spec& sim_cfg,
                                   std::uint64_t seed) const {
  const std::vector<geom::vec2> positions = spec.make_positions(seed);
  for (const failure_event& e : sim_cfg.failures.events) {
    if (e.node >= positions.size()) {
      throw std::invalid_argument("run_dynamic: failure event node " + std::to_string(e.node) +
                                  " is not below the node count " +
                                  std::to_string(positions.size()));
    }
  }
  const radio::link_model link = spec.link(seed);
  const radio::power_model& pm = link.power();
  const std::uint64_t instance_seed = spec.base_seed + seed;

  dynamic_report r;
  r.seed = seed;
  r.nodes = positions.size();

  // Engine selection: both engines execute the same canonical event
  // order (sim/scheduler.h), so the serial simulator is the bitwise
  // reference for the partitioned engine at any region/thread count
  // (asserted in sim_partition_test).
  util::thread_pool pool(spec.cbtc.intra_threads);
  const std::uint32_t grid_side = region_grid_side(spec, sim_cfg, positions.size());
  const geom::bbox field = spec.region();
  const auto region_at = [&](const geom::vec2& p) -> std::uint32_t {
    const double fx = field.width() > 0.0 ? (p.x - field.min.x) / field.width() : 0.0;
    const double fy = field.height() > 0.0 ? (p.y - field.min.y) / field.height() : 0.0;
    const auto cx = std::min<std::uint32_t>(
        grid_side - 1, static_cast<std::uint32_t>(std::max(0.0, fx * grid_side)));
    const auto cy = std::min<std::uint32_t>(
        grid_side - 1, static_cast<std::uint32_t>(std::max(0.0, fy * grid_side)));
    return cy * grid_side + cx;
  };
  sim::simulator serial_sim;
  std::unique_ptr<sim::partitioned_simulator> psim;
  if (grid_side >= 2) {
    psim = std::make_unique<sim::partitioned_simulator>(
        positions.size(),
        sim::partitioned_simulator::config{.regions = grid_side * grid_side,
                                           .lookahead = spec.protocol.channel.base_delay,
                                           .pool = &pool});
    for (graph::node_id u = 0; u < positions.size(); ++u) {
      psim->set_region(u, region_at(positions[u]));
    }
  }
  sim::scheduler& simulator = psim ? static_cast<sim::scheduler&>(*psim) : serial_sim;
  sim::medium medium(simulator, link, radio::channel(spec.protocol.channel, instance_seed),
                     radio::direction_estimator(spec.protocol.direction_noise, instance_seed + 1));

  proto::reconfig_config cfg;
  cfg.agent = spec.protocol.agent;
  cfg.agent.params = spec.cbtc;
  cfg.agent.params.mode = algo::growth_mode::discrete;  // what deployed agents run
  cfg.ndp.beacon_interval = sim_cfg.beacons.interval;
  cfg.ndp.miss_limit = sim_cfg.beacons.miss_limit;
  cfg.ndp.achange_threshold = sim_cfg.beacons.achange_threshold;
  cfg.shrink_back = sim_cfg.beacons.shrink_back;

  std::vector<std::unique_ptr<proto::reconfig_agent>> agents;
  agents.reserve(positions.size());
  for (const geom::vec2& p : positions) {
    const graph::node_id id = medium.add_node(p, {});
    agents.push_back(std::make_unique<proto::reconfig_agent>(medium, id, cfg));
  }

  // The incremental live G_R: mirrored from the medium through hooks,
  // never rebuilt. The union-find monitor answers field connectivity
  // at event granularity. Link-aware: under a non-uniform propagation
  // model the index maintains exactly the links that close at P.
  graph::live_neighbor_index index(positions, link);
  graph::connectivity_monitor field_monitor(index);
  graph::connectivity_scratch scratch;

  // Broadcast routing through the live index: neighbors(u) is exactly
  // the set any transmit power can reach (sorted ascending, like the
  // full scan), so deliveries are bitwise-identical and O(degree).
  medium.set_broadcast_directory(
      [&index](graph::node_id u) { return index.neighbors(u); });
  if (psim) {
    std::vector<std::uint32_t> region_map(positions.size());
    for (graph::node_id u = 0; u < positions.size(); ++u) region_map[u] = psim->region_of(u);
    index.set_region_map(std::move(region_map), psim->regions());
  }

  // The agents' closure topology, mirrored from per-agent table deltas
  // so a connectivity evaluation never re-reads n neighbor tables.
  // Under the partitioned engine, deltas produced inside a parallel
  // region phase are buffered per region and applied at the barrier:
  // the mirror's net state is delta-order-invariant (sorted entry
  // vectors with per-pair arc counts), so the flush order does not
  // matter, and evaluations only read it from the (serial) instant
  // hook.
  struct arc_delta {
    graph::node_id u, v;
    bool added;
  };
  graph::closure_mirror mirror(positions.size());
  std::vector<std::vector<arc_delta>> mirror_deltas(psim ? psim->regions() : 0);
  const auto apply_delta = [&mirror](const arc_delta& d) {
    if (d.added) {
      mirror.add_arc(d.u, d.v);
    } else {
      mirror.remove_arc(d.u, d.v);
    }
  };
  for (graph::node_id u = 0; u < agents.size(); ++u) {
    agents[u]->set_table_hook([u, &mirror_deltas, &apply_delta](graph::node_id v, bool added) {
      // Evaluations are scheduled by the coarser change hook below;
      // the delta stream only keeps the mirror current.
      if (sim::partitioned_simulator::in_event_phase()) {
        mirror_deltas[sim::partitioned_simulator::current_region()].push_back({u, v, added});
      } else {
        apply_delta({u, v, added});
      }
    });
  }
  if (psim) {
    psim->set_barrier_hook([&mirror_deltas, &apply_delta] {
      for (std::vector<arc_delta>& deltas : mirror_deltas) {
        for (const arc_delta& d : deltas) apply_delta(d);
        deltas.clear();
      }
    });
  }

  // -- event-driven connectivity tracking ---------------------------
  // Armed after the settle sample. Every event that changes the index
  // or an agent's neighbor table requests the scheduler's end-of-
  // instant hook; the evaluation runs exactly once per changed
  // instant, after all of that instant's events (and, under the
  // partitioned engine, after the barrier applied the buffered mirror
  // deltas). Disruption windows therefore carry exact event times
  // instead of sample-cadence times.
  bool tracking = false;
  bool was_ok = false;  // disruptions are ok -> broken transitions only;
                        // a topology still converging at `settle` is
                        // reported via initial_connectivity_ok instead
  double broken_since = -1.0;
  double latency_sum = 0.0;
  double field_broken_since = -1.0;

  const auto track = [&](double t, bool ok, bool field) {
    if (!ok && was_ok && broken_since < 0.0) broken_since = t;
    if (ok) {
      if (broken_since >= 0.0) {
        const double latency = t - broken_since;
        ++r.disruptions;
        latency_sum += latency;
        r.repair_latency_max = std::max(r.repair_latency_max, latency);
        broken_since = -1.0;
      }
      was_ok = true;
    }
    if (!field && field_broken_since < 0.0) {
      field_broken_since = t;
      if (!r.partitioned) {
        r.partitioned = true;
        r.time_to_partition = t;
      }
    } else if (field && field_broken_since >= 0.0) {
      ++r.field_disruptions;
      r.field_downtime += t - field_broken_since;
      field_broken_since = -1.0;
    }
  };

  const auto evaluate_now = [&] {
    // In-place: read the mirror's and the index's adjacency directly —
    // no per-evaluation graph snapshots on the dense-churn path.
    // Verdict identical to the snapshot comparison (partitions, not
    // representations, decide); asserted in radio_propagation_test.
    track(simulator.now(), graph::same_connectivity(mirror, index, scratch),
          field_monitor.connected());
  };
  // Convergecast data plane (declared before the hooks that mark its
  // routes stale; constructed after the agents exist, below).
  std::unique_ptr<sim::convergecast> traffic;

  const auto note_change = [&] {
    // The traffic plane's next-hop tables follow the same deltas the
    // connectivity tracker watches; marking is a relaxed atomic store,
    // safe from parallel region phases.
    if (traffic) traffic->mark_routes_stale();
    // `tracking` only flips between run_until calls, so the unguarded
    // read from parallel region phases is race-free.
    if (!tracking) return;
    simulator.request_instant_hook();
  };
  simulator.set_instant_hook(evaluate_now);

  medium.set_move_hook([&](graph::node_id u, const geom::vec2& p) {
    // Mobility steps are class-0 (serial) events, so the index mutates
    // before any handler of the instant runs — and a move that changed
    // no edge (version unchanged) cannot change connectivity, so it
    // requests no evaluation at all. Hop powers do drift with every
    // move, though, so the traffic routes always go stale.
    if (traffic) traffic->mark_routes_stale();
    const std::uint64_t before = index.version();
    index.move(u, p);
    if (index.version() != before) note_change();
    if (psim) {
      const std::uint32_t reg = region_at(p);
      if (reg != psim->region_of(u)) {
        psim->set_region(u, reg);
        index.set_node_region(u, reg);
      }
    }
  });
  medium.set_liveness_hook([&](graph::node_id u, bool up) {
    if (up) {
      index.insert(u, medium.position(u));
    } else {
      index.erase(u);
    }
    mirror.set_live(u, up);
    note_change();  // the live set itself changed
  });
  for (auto& a : agents) a->set_change_hook(note_change);

  // Convergecast data plane: wraps the agents' handlers (foreign
  // payloads pass through), draws no randomness (the engine-selection
  // gate above is unaffected), and reads the closure topology only
  // from class-0 refresh events, enumerating the mirror's live
  // neighbors in place. Periods are clamped up to the channel base
  // delay so every self-scheduled timer respects the partitioned
  // engine's lookahead.
  if (sim_cfg.traffic.enabled() && positions.size() > 1) {
    sim::convergecast_config tc;
    tc.sink = sim_cfg.traffic.sink < positions.size() ? sim_cfg.traffic.sink : 0;
    const double lead = std::max(0.0, spec.protocol.channel.base_delay);
    tc.period = std::max(sim_cfg.traffic.period, lead);
    tc.start = std::min(sim_cfg.traffic.start > 0.0 ? sim_cfg.traffic.start
                                                    : std::min(sim_cfg.settle, sim_cfg.horizon),
                        sim_cfg.horizon);
    tc.until =
        sim_cfg.traffic.until > 0.0 ? std::min(sim_cfg.traffic.until, sim_cfg.horizon)
                                    : sim_cfg.horizon;
    tc.horizon = sim_cfg.horizon;
    tc.service_time = std::max(sim_cfg.traffic.service_time, lead);
    tc.route_refresh = std::max(sim_cfg.traffic.route_refresh, lead);
    tc.queue_capacity = std::max<std::size_t>(1, sim_cfg.traffic.queue_capacity);
    traffic = std::make_unique<sim::convergecast>(
        medium, tc,
        [&mirror](graph::node_id u, const std::function<void(graph::node_id)>& fn) {
          mirror.for_each_live_neighbor(u, fn);
        },
        [&link, &medium](graph::node_id tx, graph::node_id rx) {
          return link.required_power(tx, rx, medium.position(tx), medium.position(rx));
        });
    traffic->start();
  }

  for (auto& a : agents) a->start(sim_cfg.horizon);

  // Failure schedule: random crashes drawn from the instance seed,
  // plus any explicit events.
  sim::failure_injector injector(medium, instance_seed ^ 0x8badf00ddeadbeefULL);
  if (sim_cfg.failures.random_crashes > 0) {
    injector.random_crashes(sim_cfg.failures.random_crashes, sim_cfg.failures.window_begin,
                            sim_cfg.failures.window_end);
  }
  for (const failure_event& e : sim_cfg.failures.events) {
    if (e.restart) {
      injector.restart_at(e.node, e.time);
    } else {
      injector.crash_at(e.node, e.time);
    }
  }

  // Mobility driver, armed at mobility.start via the event queue so
  // the initial topology can settle before nodes move.
  std::unique_ptr<sim::random_waypoint> waypoint;
  std::unique_ptr<sim::bouncing_mobility> bouncing;
  const mobility_spec& mob = sim_cfg.mobility;
  const double move_until = mob.until > 0.0 ? mob.until : sim_cfg.horizon;
  if (mob.kind == mobility_kind::random_waypoint) {
    waypoint = std::make_unique<sim::random_waypoint>(
        medium,
        sim::waypoint_params{.region = spec.region(), .min_speed = mob.min_speed,
                             .max_speed = mob.max_speed, .pause = mob.pause},
        instance_seed ^ 0x5e5e5e5e0b0eULL);
    simulator.schedule_at(mob.start, [&] { waypoint->start(mob.tick, move_until); });
  } else if (mob.kind == mobility_kind::bouncing) {
    std::mt19937_64 rng(instance_seed ^ 0xb0b0b0b0ULL);
    std::uniform_real_distribution<double> speed(mob.min_speed, mob.max_speed);
    std::uniform_real_distribution<double> heading(0.0, 2.0 * geom::pi);
    std::vector<geom::vec2> velocities;
    velocities.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const double s = speed(rng);
      const double a = heading(rng);
      velocities.push_back({s * std::cos(a), s * std::sin(a)});
    }
    bouncing = std::make_unique<sim::bouncing_mobility>(medium, spec.region(),
                                                        std::move(velocities));
    simulator.schedule_at(mob.start, [&] { bouncing->start(mob.tick, move_until); });
  }

  // Sample at settle, every sample_every after that, and at the
  // horizon; the event-driven tracker covers everything in between.
  live_state state;  // last captured state (reused for the final report)
  const auto observe = [&](double t) {
    state = capture_live_state(index, mirror);
    const dynamic_sample s = measure(state, field_monitor.connected(), medium.positions(),
                                     pm.max_range(), t, pool);
    track(t, s.connectivity_ok, s.field_connected);
    r.samples.push_back(s);
  };

  const double settle = std::min(sim_cfg.settle, sim_cfg.horizon);
  simulator.run_until(settle);
  tracking = true;  // pre-settle convergence is not a disruption
  observe(settle);
  r.initial_connectivity_ok = r.samples.front().connectivity_ok;
  r.initial_edges = r.samples.front().edges;

  if (sim_cfg.horizon > settle) {
    const double step =
        sim_cfg.sample_every > 0.0 ? sim_cfg.sample_every : sim_cfg.horizon - settle;
    for (double t = settle + step; t + 1e-9 < sim_cfg.horizon; t += step) {
      simulator.run_until(t);
      observe(t);
    }
    simulator.run_until(sim_cfg.horizon);
    observe(sim_cfg.horizon);
  }

  if (broken_since >= 0.0) ++r.unrepaired;
  if (field_broken_since >= 0.0) r.field_downtime += sim_cfg.horizon - field_broken_since;
  if (!r.partitioned) r.time_to_partition = sim_cfg.horizon;
  r.repair_latency_mean =
      r.disruptions == 0 ? 0.0 : latency_sum / static_cast<double>(r.disruptions);

  r.final_connectivity_ok = r.samples.back().connectivity_ok;
  r.live_nodes = state.live;
  r.final_topology = std::move(state.topology);
  r.final_positions = medium.positions();
  r.up = std::move(state.up);

  for (const auto& a : agents) {
    r.joins += a->stats().joins;
    r.leaves += a->stats().leaves;
    r.achanges += a->stats().achanges;
    r.regrows += a->stats().regrows;
    r.prunes += a->stats().prunes;
    r.beacons += a->ndp().beacons_sent();
  }
  r.channel = medium.stats();

  if (traffic) {
    traffic->finish();
    const sim::convergecast_stats& ts = traffic->stats();
    traffic_report& tr = r.traffic;
    tr.enabled = true;
    tr.generated = ts.generated;
    tr.delivered = ts.delivered;
    tr.forwards = ts.forwards;
    tr.queue_drops = ts.queue_drops;
    tr.no_route_drops = ts.no_route_drops;
    tr.dead_drops = ts.dead_drops;
    tr.lost_in_air = ts.lost_in_air;
    tr.queued_at_end = ts.queued_at_end;
    tr.route_refreshes = ts.route_refreshes;
    tr.queue_peak = ts.queue_peak;
    tr.delivery_ratio =
        ts.generated == 0 ? 0.0
                          : static_cast<double>(ts.delivered) / static_cast<double>(ts.generated);
    const double window = sim_cfg.horizon - traffic->config().start;
    tr.throughput = window > 0.0 ? static_cast<double>(ts.delivered) / window : 0.0;
    tr.avg_delay =
        ts.delivered == 0 ? 0.0 : ts.delay_sum / static_cast<double>(ts.delivered);
    tr.forwarding_energy = ts.forwarding_energy;
    tr.energy_mean = ts.energy_mean;
    tr.energy_max = ts.energy_max;
    tr.energy_stddev = ts.energy_stddev;
  }
  return r;
}

lifetime_report engine::run_lifetime(const scenario_spec& spec, const lifetime_spec& life,
                                     std::uint64_t seed) const {
  scenario_spec topo_spec = spec;
  topo_spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  // One pass: the engine hands back the deployment and the max-power
  // graph it already built for the topology run.
  std::vector<geom::vec2> positions;
  graph::undirected_graph gr;
  const run_report built = run_internal(topo_spec, seed, &positions, &gr);
  const radio::link_model link = spec.link(seed);
  const radio::power_model& pm = link.power();
  const graph::undirected_graph& topology = built.topology;

  const std::size_t n = positions.size();
  // Every round draws flow endpoints modulo n.
  if (n == 0) throw std::invalid_argument("run_lifetime: the deployment has no nodes");
  const double battery = life.battery_rounds * pm.max_power();
  std::vector<double> charge(n, battery);
  std::vector<bool> alive(n, true);
  std::mt19937_64 rng((spec.base_seed + seed) ^ 0x9e3779b97f4a7c15ULL);

  // Beacon power: reach the farthest topology neighbor (nodes with no
  // neighbors spend nothing — they have nobody to keep alive).
  // Per-slot writes: identical for any intra-thread count.
  util::thread_pool pool(spec.cbtc.intra_threads);
  std::vector<double> beacon(n, 0.0);
  if (link.is_isotropic()) {
    pool.parallel_for(n, [&](std::size_t u) {
      beacon[u] =
          std::pow(graph::node_radius(topology, positions, static_cast<graph::node_id>(u), 0.0),
                   pm.exponent());
    });
  } else {
    // Per-link budget: the beacon must close the worst incident link.
    pool.parallel_for(n, [&](std::size_t u) {
      const auto uid = static_cast<graph::node_id>(u);
      double need = 0.0;
      for (const graph::node_id v : topology.neighbors(uid)) {
        need = std::max(need, link.required_power(uid, v, positions[u], positions[v]));
      }
      beacon[u] = need;
    });
  }
  const graph::edge_cost_fn cost =
      link.is_isotropic() ? graph::power_cost(positions, pm.exponent())
                          : graph::edge_cost_fn([link, &positions](graph::node_id a,
                                                                   graph::node_id b) {
                              return link.required_power(a, b, positions[a], positions[b]);
                            });

  lifetime_report res;
  std::size_t deaths = 0;
  graph::undirected_graph live = topology;

  // The historical plain-CBTC flows experiment keeps its exact
  // arithmetic (hop-count routes via BFS); the policy paths below are
  // additive, so old results stay bitwise-reproducible.
  const bool adaptive = life.policy != lifetime_policy::plain_cbtc || life.convergecast;

  // Adaptive machinery (Chu & Sethu): routes are chosen by residual-
  // energy-weighted shortest paths — energy_balanced divides each
  // hop's power cost by the transmitter's residual-charge fraction
  // over the CBTC topology; cooperative_adaptation squares the
  // penalty and routes over the full live G_R, so neighbors spend
  // more transmit power on longer links to bypass depleted relays.
  // Transmitters always *pay* the real link power; the weighting only
  // biases path choice.
  const graph::node_id sink = life.sink < n ? life.sink : 0;
  graph::undirected_graph live_gr =
      life.policy == lifetime_policy::cooperative_adaptation ? gr : graph::undirected_graph(0);
  const auto residual = [&](graph::node_id u) { return std::max(charge[u] / battery, 1e-3); };
  const auto route_weight = [&](graph::node_id tx, graph::node_id rx) {
    const double base = cost(tx, rx);
    switch (life.policy) {
      case lifetime_policy::plain_cbtc:
        return base;
      case lifetime_policy::energy_balanced:
        return base / residual(tx);
      case lifetime_policy::cooperative_adaptation: {
        const double f = residual(tx);
        return base / (f * f);
      }
    }
    return base;
  };
  const graph::undirected_graph& routing =
      life.policy == lifetime_policy::cooperative_adaptation ? live_gr : live;
  // dijkstra_tree invokes cost(settled, neighbor); the neighbor is the
  // one transmitting toward the tree root, so it pays the weight.
  const graph::edge_cost_fn toward_root = [&](graph::node_id u, graph::node_id v) {
    return route_weight(v, u);
  };

  for (std::size_t round = 1; round <= life.max_rounds; ++round) {
    for (graph::node_id u = 0; u < n; ++u) {
      // A convergecast sink is mains-powered: it pays nothing and
      // (having only mains drain) never dies.
      if (alive[u] && !(life.convergecast && u == sink)) charge[u] -= beacon[u];
    }
    if (!adaptive) {
      for (std::size_t f = 0; f < life.flows; ++f) {
        const auto s = static_cast<graph::node_id>(rng() % n);
        const auto t = static_cast<graph::node_id>(rng() % n);
        if (s == t || !alive[s] || !alive[t]) continue;
        const auto path = graph::bfs_path(live, s, t);
        for (std::size_t h = 0; h + 1 < path.size(); ++h) {
          charge[path[h]] -= cost(path[h], path[h + 1]);
        }
      }
    } else if (life.convergecast) {
      // One reading from every live node to the sink along this
      // round's policy tree; every relay pays the real power of its
      // outgoing hop once per packet it forwards.
      const auto tree = graph::dijkstra_tree(routing, sink, toward_root);
      for (graph::node_id u = 0; u < n; ++u) {
        if (!alive[u] || u == sink || tree.parent[u] == graph::invalid_node) continue;
        for (graph::node_id h = u; h != sink; h = tree.parent[h]) {
          charge[h] -= cost(h, tree.parent[h]);
        }
      }
    } else {
      // Same endpoint draws as the plain experiment, but routed by the
      // policy's weighted shortest paths.
      for (std::size_t f = 0; f < life.flows; ++f) {
        const auto s = static_cast<graph::node_id>(rng() % n);
        const auto t = static_cast<graph::node_id>(rng() % n);
        if (s == t || !alive[s] || !alive[t]) continue;
        const auto tree = graph::dijkstra_tree(routing, t, toward_root);
        if (tree.parent[s] == graph::invalid_node) continue;
        for (graph::node_id h = s; h != t; h = tree.parent[h]) {
          charge[h] -= cost(h, tree.parent[h]);
        }
      }
    }
    bool someone_died = false;
    for (graph::node_id u = 0; u < n; ++u) {
      if (alive[u] && charge[u] <= 0.0) {
        alive[u] = false;
        someone_died = true;
        ++deaths;
        if (res.first_death == 0.0) res.first_death = static_cast<double>(round);
        const std::vector<graph::node_id> nbrs(live.neighbors(u).begin(),
                                               live.neighbors(u).end());
        for (graph::node_id v : nbrs) live.remove_edge(u, v);
        if (live_gr.num_nodes() > 0) {
          const std::vector<graph::node_id> gnbrs(live_gr.neighbors(u).begin(),
                                                  live_gr.neighbors(u).end());
          for (graph::node_id v : gnbrs) live_gr.remove_edge(u, v);
        }
      }
    }
    if (res.quarter_dead == 0.0 && deaths * 4 >= n) {
      res.quarter_dead = static_cast<double>(round);
    }
    if (someone_died && !alive_subgraph_connected(gr, alive)) {
      res.field_partition = static_cast<double>(round);
      break;
    }
  }
  const auto cap = static_cast<double>(life.max_rounds);
  if (res.first_death == 0.0) res.first_death = cap;
  if (res.quarter_dead == 0.0) res.quarter_dead = cap;
  if (res.field_partition == 0.0) res.field_partition = cap;
  return res;
}

void dynamic_batch_report::accumulate(const dynamic_report& r) {
  ++runs;
  if (!r.initial_connectivity_ok) ++initial_connectivity_failures;
  if (!r.final_connectivity_ok) ++final_connectivity_failures;
  if (r.partitioned) ++partitioned_runs;
  unrepaired_disruptions += r.unrepaired;
  broadcasts.add(static_cast<double>(r.channel.broadcasts));
  unicasts.add(static_cast<double>(r.channel.unicasts));
  deliveries.add(static_cast<double>(r.channel.deliveries));
  drops.add(static_cast<double>(r.channel.drops));
  tx_energy.add(r.channel.tx_energy);
  joins.add(static_cast<double>(r.joins));
  leaves.add(static_cast<double>(r.leaves));
  achanges.add(static_cast<double>(r.achanges));
  regrows.add(static_cast<double>(r.regrows));
  prunes.add(static_cast<double>(r.prunes));
  beacons.add(static_cast<double>(r.beacons));
  disruptions.add(static_cast<double>(r.disruptions));
  // Runs that never broke carry no repair-latency information; folding
  // their zeros in would bias the latency aggregates toward zero.
  if (r.disruptions > 0) {
    repair_latency.add(r.repair_latency_mean);
    repair_latency_max.add(r.repair_latency_max);
  }
  field_disruptions.add(static_cast<double>(r.field_disruptions));
  field_downtime.add(r.field_downtime);
  time_to_partition.add(r.time_to_partition);
  live_nodes.add(static_cast<double>(r.live_nodes));
  if (!r.samples.empty()) {
    const dynamic_sample& last = r.samples.back();
    final_edges.add(static_cast<double>(last.edges));
    final_degree.add(last.avg_degree);
    final_radius.add(last.avg_radius);
  }
  if (r.traffic.enabled) {
    ++traffic_runs;
    traffic_generated.add(static_cast<double>(r.traffic.generated));
    traffic_delivered.add(static_cast<double>(r.traffic.delivered));
    traffic_delivery_ratio.add(r.traffic.delivery_ratio);
    traffic_throughput.add(r.traffic.throughput);
    traffic_delay.add(r.traffic.avg_delay);
    traffic_energy.add(r.traffic.forwarding_energy);
    traffic_energy_spread.add(r.traffic.energy_stddev);
    traffic_drops.add(static_cast<double>(r.traffic.queue_drops + r.traffic.no_route_drops +
                                          r.traffic.dead_drops));
    traffic_queue_peak.add(static_cast<double>(r.traffic.queue_peak));
  }
}

dynamic_batch_report reduce(std::span<const dynamic_report> reports) {
  dynamic_batch_report b;
  for (const dynamic_report& r : reports) b.accumulate(r);
  return b;
}

}  // namespace cbtc::api
