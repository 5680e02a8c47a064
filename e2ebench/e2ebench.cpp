// e2ebench — whole-run workloads of the cbtc library, timed from outside.
//
//   e2ebench --workload NAME --seed N --scale full|toy --mode op --seconds S
//   e2ebench --workload NAME --seed N --scale full|toy --mode trace --seconds S
//            --trace-out FILE
//
// `--mode op` runs the workload's op once cold (the first op of this
// process: input generation, executor spin-up and page faults included)
// and then warm ops back to back — a closed loop with one caller — while
// the next one is expected to end within `--seconds` (at least one when
// `--seconds` > 0). Each op prints one JSON line
// with its wall time and an output fingerprint (exact counts plus
// scalar means) that run.py checks against the pins; the last line is
// the process's peak RSS.
//
// `--mode trace` re-runs the workload with spans around every call the
// benchmark makes into a layer's public functions (the static oracle
// path of engine::run is mirrored call by call; dynamic runs are timed
// per engine call), writes the spans as Chrome trace-event JSON to
// `--trace-out`, and prints one JSON line of per-layer metrics. Every
// traced result is checked against the untraced engine call it
// mirrors. Nothing here is part of the library: spans live only in
// this file.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "geom/spatial_order.h"
#include "graph/euclidean.h"
#include "graph/interference.h"
#include "graph/metrics.h"
#include "graph/robustness.h"
#include "util/parallel.h"

namespace {

using namespace cbtc;
using clock_type = std::chrono::steady_clock;

const clock_type::time_point process_start = clock_type::now();

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// ---- workloads ---------------------------------------------------------

enum class workload_kind { static_12k, table1_sweep, churn_8k, mobile_sweep };

struct workload_size {
  std::size_t static_nodes;
  std::uint64_t table1_seeds;
  std::size_t churn_nodes;
  std::uint64_t mobile_seeds;
  // Serial per-seed reference subsets (api.batch_efficiency, traces).
  std::uint64_t table1_subset;
  std::uint64_t mobile_subset;
  // static_12k's Morton-relabel threshold, lowered below the engine
  // default (65536) so the instance walks the big-instance relabel path.
  std::size_t relabel_min_nodes;
};

// Ops of at most about a second, so one run holds many warm samples.
// Single instances of 100k (static) and 20k (churn) nodes took 4-5 s per
// op, and their run medians drifted by up to 25% on a shared 4-core host;
// a 25k static instance still drifted more than the 100-node sweep, a
// 6k-12k one about as much. run_batch hands out 16-seed blocks, so the
// mobile sweep needs 256 seeds (4 blocks per thread): at 128 its ops
// spread by +-15% with which thread drew the last block.
constexpr workload_size full_size{12000, 1024, 8000, 256, 512, 64, 4096};
constexpr workload_size toy_size{2000, 64, 1500, 16, 16, 4, 1000};

constexpr unsigned bench_threads = 4;

double paper_density_side(std::size_t nodes) {
  // 100 nodes <-> 1500^2, the paper's Section 5 density.
  return 1500.0 * std::sqrt(static_cast<double>(nodes) / 100.0);
}

/// The registered paper_table1 preset at `nodes` nodes, paper density.
api::scenario_spec static_spec(const workload_size& size) {
  api::scenario_spec s = api::get_scenario("paper_table1");
  s.deploy.nodes = size.static_nodes;
  s.deploy.region_side = paper_density_side(size.static_nodes);
  s.cbtc.intra_threads = bench_threads;
  s.cbtc.relabel_min_nodes = size.relabel_min_nodes;
  return s;
}

api::scenario_spec table1_spec() {
  api::scenario_spec s = api::get_scenario("paper_table1");
  s.cbtc.intra_threads = 1;
  return s;
}

/// The partitioned mobile-churn setup (protocol build-out, waypoint
/// motion from t=3, n/100 crashes in [3.5, 5.5], 16 regions).
api::dynamic_scenario churn_scenario(std::size_t nodes) {
  api::dynamic_scenario d;
  api::scenario_spec& s = d.scenario;
  s.deploy.nodes = nodes;
  s.deploy.region_side = paper_density_side(nodes);
  s.base_seed = 42;
  s.metrics = {.stretch = false, .interference = false, .robustness = false};
  s.method = api::method_spec::protocol();
  s.protocol.agent.round_timeout = 0.5;
  s.protocol.channel.base_delay = 0.01;
  s.cbtc.intra_threads = bench_threads;
  api::sim_spec& sim = d.sim;
  sim.horizon = 6.0;
  sim.settle = 3.0;
  sim.sample_every = 1.5;
  sim.mobility = {.kind = api::mobility_kind::random_waypoint,
                  .min_speed = 2.0,
                  .max_speed = 8.0,
                  .tick = 0.5,
                  .start = 3.0};
  sim.failures.random_crashes = nodes / 100;
  sim.failures.window_begin = 3.5;
  sim.failures.window_end = 5.5;
  sim.partition.regions = 16;
  return d;
}

/// The shadowed_field_mobile preset plus a convergecast data plane.
api::dynamic_scenario mobile_scenario() {
  api::dynamic_scenario d = api::get_dynamic_scenario("shadowed_field_mobile");
  d.sim.traffic = {.period = 5.0, .sink = 0, .start = 15.0};
  return d;
}

// ---- output fingerprints -----------------------------------------------

/// Exact counts and scalar results of one op, plus the invariant verdict.
struct fingerprint {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::vector<std::pair<std::string, double>> scalars;
  bool invariants_ok{false};

  void count(const char* name, std::uint64_t v) { counts.emplace_back(name, v); }
  void scalar(const char* name, double v) { scalars.emplace_back(name, v); }

  [[nodiscard]] bool operator==(const fingerprint&) const = default;
};

/// An integer-valued total carried by a summary (exact below 2^53).
std::uint64_t total(const exp::summary& s) { return static_cast<std::uint64_t>(std::llround(s.sum())); }

fingerprint of_run(const api::run_report& r) {
  fingerprint f;
  f.count("nodes", r.nodes);
  f.count("edges", r.edges);
  f.count("max_power_edges", r.max_power_edges);
  f.count("boundary_nodes", r.boundary_nodes);
  f.count("redundant_edges", r.redundant_edges);
  f.count("removed_edges", r.removed_edges);
  f.count("interference_max", r.interference_max);
  f.count("cut_vertices", r.cut_vertices);
  f.scalar("avg_degree", r.avg_degree);
  f.scalar("avg_radius", r.avg_radius);
  f.scalar("max_radius", r.max_radius);
  f.scalar("avg_power", r.avg_power);
  f.scalar("power_stretch", r.power_stretch);
  f.scalar("power_stretch_max", r.power_stretch_max);
  f.scalar("hop_stretch", r.hop_stretch);
  f.scalar("hop_stretch_max", r.hop_stretch_max);
  f.scalar("interference_mean", r.interference_mean);
  f.invariants_ok = r.invariants.ok();
  return f;
}

fingerprint of_batch(const api::batch_report& b) {
  fingerprint f;
  f.count("runs", b.runs);
  f.count("connectivity_failures", b.connectivity_failures);
  f.count("edges_total", total(b.edges));
  f.count("boundary_total", total(b.boundary));
  f.count("removed_edges_total", total(b.removed_edges));
  f.count("cut_vertices_total", total(b.cut_vertices));
  f.scalar("degree_mean", b.degree.mean());
  f.scalar("radius_mean", b.radius.mean());
  f.scalar("tx_power_mean", b.tx_power.mean());
  f.scalar("power_stretch_mean", b.power_stretch.mean());
  f.scalar("hop_stretch_mean", b.hop_stretch.mean());
  f.scalar("interference_mean", b.interference.mean());
  f.invariants_ok = b.connectivity_failures == 0;
  return f;
}

std::uint64_t reconfig_ops(const api::dynamic_report& r) {
  return r.joins + r.leaves + r.achanges + r.regrows + r.prunes;
}

fingerprint of_dynamic(const api::dynamic_report& r) {
  fingerprint f;
  f.count("nodes", r.nodes);
  f.count("live_nodes", r.live_nodes);
  f.count("initial_edges", r.initial_edges);
  f.count("final_edges", r.final_topology.num_edges());
  f.count("broadcasts", r.channel.broadcasts);
  f.count("unicasts", r.channel.unicasts);
  f.count("deliveries", r.channel.deliveries);
  f.count("drops", r.channel.drops);
  f.count("beacons", r.beacons);
  f.count("joins", r.joins);
  f.count("leaves", r.leaves);
  f.count("achanges", r.achanges);
  f.count("regrows", r.regrows);
  f.count("prunes", r.prunes);
  f.count("disruptions", r.disruptions);
  f.count("unrepaired", r.unrepaired);
  f.count("field_disruptions", r.field_disruptions);
  f.count("initial_connectivity_ok", r.initial_connectivity_ok ? 1 : 0);
  f.count("final_connectivity_ok", r.final_connectivity_ok ? 1 : 0);
  f.count("partitioned", r.partitioned ? 1 : 0);
  f.count("traffic_generated", r.traffic.generated);
  f.count("traffic_delivered", r.traffic.delivered);
  f.count("traffic_forwards", r.traffic.forwards);
  f.scalar("tx_energy", r.channel.tx_energy);
  f.scalar("repair_latency_mean", r.repair_latency_mean);
  f.scalar("repair_latency_max", r.repair_latency_max);
  f.scalar("field_downtime", r.field_downtime);
  // The churn preset's growth is still running at settle (t=3), so the
  // invariant is the final one: the live topology keeps the survivors'
  // G_R connectivity at the horizon.
  f.invariants_ok = r.final_connectivity_ok;
  return f;
}

fingerprint of_dynamic_batch(const api::dynamic_batch_report& b) {
  fingerprint f;
  f.count("runs", b.runs);
  f.count("initial_connectivity_failures", b.initial_connectivity_failures);
  f.count("final_connectivity_failures", b.final_connectivity_failures);
  f.count("partitioned_runs", b.partitioned_runs);
  f.count("unrepaired_disruptions", b.unrepaired_disruptions);
  f.count("traffic_runs", b.traffic_runs);
  f.count("broadcasts_total", total(b.broadcasts));
  f.count("deliveries_total", total(b.deliveries));
  f.count("drops_total", total(b.drops));
  f.count("beacons_total", total(b.beacons));
  f.count("joins_total", total(b.joins));
  f.count("traffic_generated_total", total(b.traffic_generated));
  f.count("traffic_delivered_total", total(b.traffic_delivered));
  f.scalar("tx_energy_mean", b.tx_energy.mean());
  f.scalar("final_degree_mean", b.final_degree.mean());
  f.scalar("final_radius_mean", b.final_radius.mean());
  f.scalar("repair_latency_mean", b.repair_latency.mean());
  f.scalar("traffic_delivery_ratio_mean", b.traffic_delivery_ratio.mean());
  f.scalar("traffic_delay_mean", b.traffic_delay.mean());
  f.invariants_ok = b.initial_connectivity_failures == 0 && b.final_connectivity_failures == 0;
  return f;
}

// ---- JSON output ----------------------------------------------------------

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string to_json(const fingerprint& f) {
  std::string out = "{\"invariants_ok\":" + std::string(f.invariants_ok ? "true" : "false");
  out += ",\"counts\":{";
  for (std::size_t i = 0; i < f.counts.size(); ++i) {
    out += (i ? "," : "") + quoted(f.counts[i].first) + ":" + std::to_string(f.counts[i].second);
  }
  out += "},\"scalars\":{";
  for (std::size_t i = 0; i < f.scalars.size(); ++i) {
    out += (i ? "," : "") + quoted(f.scalars[i].first) + ":" + num(f.scalars[i].second);
  }
  return out + "}}";
}

/// This process's resident-set high-water mark. Read from VmHWM, not
/// getrusage: ru_maxrss carries the forking parent's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---- untraced ops ----------------------------------------------------------

struct op_result {
  fingerprint outputs;
  std::uint64_t instances{0};
};

class bench {
 public:
  bench(workload_kind kind, std::uint64_t seed, const workload_size& size)
      : kind_(kind), seed_(seed), size_(size) {}

  /// One op of the workload (engine calls only; no tracing).
  op_result run_op() const {
    switch (kind_) {
      case workload_kind::static_12k:
        return {of_run(eng_.run(static_spec(size_), seed_)), 1};
      case workload_kind::table1_sweep:
        return {of_batch(eng_.run_batch(table1_spec(), table1_seeds(), bench_threads)),
                size_.table1_seeds};
      case workload_kind::churn_8k: {
        const api::dynamic_scenario d = churn_scenario(size_.churn_nodes);
        return {of_dynamic(eng_.run_dynamic(d.scenario, d.sim, seed_)), 1};
      }
      case workload_kind::mobile_sweep: {
        const api::dynamic_scenario d = mobile_scenario();
        return {of_dynamic_batch(eng_.run_batch(d.scenario, d.sim, mobile_seeds(), bench_threads)),
                size_.mobile_seeds};
      }
    }
    throw std::logic_error("unknown workload");
  }

  [[nodiscard]] workload_kind kind() const { return kind_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const workload_size& size() const { return size_; }
  [[nodiscard]] const api::engine& engine() const { return eng_; }

  /// The workload seed picks a disjoint block of instance seeds.
  [[nodiscard]] api::seed_range table1_seeds() const {
    return {seed_ * size_.table1_seeds, size_.table1_seeds};
  }
  [[nodiscard]] api::seed_range mobile_seeds() const {
    return {seed_ * size_.mobile_seeds, size_.mobile_seeds};
  }

 private:
  workload_kind kind_;
  std::uint64_t seed_;
  workload_size size_;
  api::engine eng_;
};

void print_op(const char* phase, double wall, const op_result& r) {
  std::printf("{\"op\":\"%s\",\"wall_s\":%s,\"instances\":%llu,\"outputs\":%s}\n", phase,
              num(wall).c_str(), static_cast<unsigned long long>(r.instances),
              to_json(r.outputs).c_str());
  std::fflush(stdout);
}

void print_error(const char* phase, const std::exception& e) {
  std::printf("{\"op\":\"%s\",\"error\":%s}\n", phase, quoted(e.what()).c_str());
  std::fflush(stdout);
}

int run_op_mode(const bench& b, double seconds) {
  // Cold: timed from process start, so spec construction, executor
  // spin-up and first-touch page faults are all in it.
  try {
    const op_result cold = b.run_op();
    print_op("cold", seconds_since(process_start), cold);
  } catch (const std::exception& e) {
    print_error("cold", e);
  }
  const clock_type::time_point warm_start = clock_type::now();
  double last = 0.0;
  while (seconds > 0.0 && seconds_since(warm_start) + last <= seconds) {
    const clock_type::time_point t0 = clock_type::now();
    try {
      const op_result r = b.run_op();
      last = seconds_since(t0);
      print_op("warm", last, r);
    } catch (const std::exception& e) {
      last = seconds_since(t0);
      print_error("warm", e);
    }
  }
  std::printf("{\"peak_rss_mb\":%s}\n", num(peak_rss_mb()).c_str());
  return 0;
}

// ---- tracing ---------------------------------------------------------------

/// In-memory spans of the benchmark's own calls into the library. One
/// thread (the benchmark's caller); parent = the innermost open span.
class tracer {
 public:
  struct span {
    std::string name;
    double start{0.0};
    double end{0.0};
    int parent{-1};
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  double close(int id) {
    if (stack_.empty() || stack_.back() != id) throw std::logic_error("tracer: unbalanced span");
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].end = now();
    const span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  /// Runs f inside a span named `name` and returns f's result.
  template <class F>
  auto in(const char* name, F&& f) {
    const int id = open(name);
    auto out = f();
    close(id);
    return out;
  }

  /// Self time summed per span name: duration minus the time covered
  /// by direct children.
  [[nodiscard]] std::map<std::string, double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
    for (const span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  /// Total duration of spans named `name` (children included).
  [[nodiscard]] double total(const std::string& name) const {
    double t = 0.0;
    for (const span& s : spans_) {
      if (s.name == name) t += s.end - s.start;
    }
    return t;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":" << quoted(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(s.start * 1e6)
          << ",\"dur\":" << num((s.end - s.start) * 1e6) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  [[nodiscard]] double now() const { return seconds_since(t0_); }

  clock_type::time_point t0_{clock_type::now()};
  std::vector<span> spans_;
  std::vector<int> stack_;
};

/// Per-layer metrics by name. A workload sets the ones it measures;
/// run.py reports the rest as 0 (see README.md).
using metric_map = std::map<std::string, double>;

/// The oracle path of engine::run (api/engine.cpp), one library call
/// per span. Engine-private glue — the relabel back to original ids and
/// the per-node radius pass — runs unspanned, as it does in the engine,
/// so it lands in api.unaccounted_s. The report must equal engine::run's
/// bit for bit; the caller checks that.
api::run_report traced_run(const api::scenario_spec& spec, std::uint64_t seed, tracer& tr) {
  const int root = tr.open("api.run");
  std::vector<geom::vec2> positions =
      tr.in("geom.make_positions", [&] { return spec.make_positions(seed); });
  const radio::link_model link = spec.link(seed);
  const radio::power_model& pm = link.power();
  const double R = pm.max_range();

  api::run_report r;
  r.seed = seed;
  r.nodes = positions.size();
  util::thread_pool pool(spec.cbtc.intra_threads);
  const graph::undirected_graph gr = tr.in(
      "graph.max_power_graph", [&] { return graph::build_max_power_graph(positions, link, pool); });
  r.max_power_edges = gr.num_edges();

  const std::size_t n = positions.size();
  algo::topology_result t;
  if (n >= spec.cbtc.relabel_min_nodes && n > 1 && R > 0.0) {
    const std::vector<std::uint32_t> perm =
        tr.in("geom.spatial_order", [&] { return geom::spatial_order(positions, R); });
    std::vector<geom::vec2> rpos(n);
    for (std::size_t k = 0; k < n; ++k) rpos[k] = positions[perm[k]];
    const radio::link_model rlink = link.relabeled(std::vector<std::uint32_t>(perm));
    algo::cbtc_result grown = tr.in("algo.growth", [&] { return algo::run_cbtc(rpos, rlink, spec.cbtc); });
    t = tr.in("algo.optimize", [&] {
      return algo::apply_optimizations(std::move(grown), rpos, rlink, spec.opts);
    });
    // Back to original labels (engine glue, unspanned).
    std::vector<std::size_t> off(n + 1, 0);
    for (std::size_t k = 0; k < n; ++k) off[perm[k] + 1] = t.topology.degree(static_cast<graph::node_id>(k));
    for (std::size_t u = 0; u < n; ++u) off[u + 1] += off[u];
    std::vector<graph::node_id> flat(off[n]);
    pool.parallel_for(n, [&](std::size_t k) {
      const std::size_t u = perm[k];
      std::size_t w = off[u];
      for (const graph::node_id v : t.topology.neighbors(static_cast<graph::node_id>(k))) flat[w++] = perm[v];
      std::sort(flat.begin() + static_cast<std::ptrdiff_t>(off[u]),
                flat.begin() + static_cast<std::ptrdiff_t>(off[u + 1]));
    });
    t.topology = graph::undirected_graph::from_csr(std::move(off), std::move(flat));
    std::vector<algo::node_result> nodes(n);
    pool.parallel_for(n, [&](std::size_t k) {
      algo::node_result nr = std::move(t.growth.nodes[k]);
      for (algo::neighbor_record& rec : nr.neighbors) rec.id = perm[rec.id];
      std::sort(nr.neighbors.begin(), nr.neighbors.end(),
                [](const algo::neighbor_record& a, const algo::neighbor_record& b) {
                  return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
                });
      nodes[perm[k]] = std::move(nr);
    });
    t.growth.nodes = std::move(nodes);
  } else {
    algo::cbtc_result grown =
        tr.in("algo.growth", [&] { return algo::run_cbtc(positions, link, spec.cbtc); });
    t = tr.in("algo.optimize", [&] {
      return algo::apply_optimizations(std::move(grown), positions, link, spec.opts);
    });
  }
  r.topology = std::move(t.topology);
  r.redundant_edges = t.redundant_edges;
  r.removed_edges = t.removed_edges;
  r.boundary_nodes = t.growth.boundary_count();
  r.edges = r.topology.num_edges();
  r.avg_degree = graph::average_degree(r.topology);

  // Per-node radius pass (engine glue, same block-ordered reduction).
  r.node_powers.resize(n);
  struct radius_partial {
    double sum{0.0};
    double max{0.0};
  };
  const bool isotropic = link.is_isotropic();
  const radius_partial radii = pool.reduce<radius_partial>(
      n, {},
      [&](std::size_t lo, std::size_t hi) {
        radius_partial part;
        for (std::size_t u = lo; u < hi; ++u) {
          const double rad = graph::node_radius(r.topology, positions, u, R);
          if (isotropic) {
            r.node_powers[u] = pm.required_power(rad);
          } else {
            const auto uid = static_cast<graph::node_id>(u);
            double need = 0.0;
            for (const graph::node_id v : r.topology.neighbors(uid)) {
              need = std::max(need, link.required_power(uid, v, positions[u], positions[v]));
            }
            r.node_powers[u] = r.topology.degree(uid) == 0 ? pm.max_power() : need;
          }
          part.sum += rad;
          part.max = std::max(part.max, rad);
        }
        return part;
      },
      [](radius_partial& sum, const radius_partial& p) {
        sum.sum += p.sum;
        sum.max = std::max(sum.max, p.max);
      });
  r.max_radius = radii.max;
  r.avg_radius = n == 0 ? 0.0 : radii.sum / static_cast<double>(n);
  double power_sum = 0.0;
  for (const double p : r.node_powers) power_sum += p;
  r.avg_power = n == 0 ? 0.0 : power_sum / static_cast<double>(n);

  r.invariants = tr.in("algo.invariants", [&] {
    return algo::check_invariants(r.topology, positions, link, gr, pool);
  });
  const graph::stretch_stats ps = tr.in("graph.power_stretch", [&] {
    return graph::power_stretch(r.topology, gr, positions, pm.exponent(), spec.metrics.stretch_samples);
  });
  r.power_stretch = ps.mean;
  r.power_stretch_max = ps.max;
  const graph::stretch_stats hs = tr.in("graph.hop_stretch", [&] {
    return graph::hop_stretch(r.topology, gr, spec.metrics.stretch_samples);
  });
  r.hop_stretch = hs.mean;
  r.hop_stretch_max = hs.max;
  const graph::interference_stats is = tr.in(
      "graph.interference", [&] { return graph::topology_interference(r.topology, positions); });
  r.interference_mean = is.mean;
  r.interference_max = is.max;
  r.cut_vertices = tr.in("graph.robustness",
                         [&] { return graph::articulation_points(r.topology).size(); });
  tr.close(root);
  return r;
}

/// Result of a traced run: metrics plus how many checked ops it made.
struct trace_result {
  metric_map metrics;
  std::uint64_t attempted{0};
  std::vector<std::string> failures;

  /// One checked op: `ok` means it matched its untraced twin and kept
  /// its invariants.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

double timed(const std::function<void()>& f) {
  const clock_type::time_point t0 = clock_type::now();
  f();
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Counts of traced oracle-path runs, summed.
struct static_counts {
  std::uint64_t gr_edges{0};
  std::uint64_t edges{0};
  std::uint64_t removed{0};
  std::uint64_t redundant{0};

  void add(const api::run_report& r) {
    gr_edges += r.max_power_edges;
    edges += r.edges;
    removed += r.removed_edges;
    redundant += r.redundant_edges;
  }
};

/// The static-path metrics of `ops` traced repeats of one op: per-layer
/// self times and counts divided by `ops`, and api.unaccounted_s
/// against `untraced_s`, the untraced time of one op.
void static_metrics(const tracer& tr, const static_counts& c, double ops, double untraced_s,
                    metric_map& m) {
  const std::map<std::string, double> self = tr.self_times();
  const auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / ops;
  };
  m["geom.deploy_s"] = get("geom.make_positions") + get("geom.spatial_order");
  double layers = m["geom.deploy_s"];
  for (const char* layer : {"graph.max_power_graph", "algo.growth", "algo.optimize",
                            "algo.invariants", "graph.power_stretch", "graph.hop_stretch",
                            "graph.interference", "graph.robustness"}) {
    m[std::string(layer) + "_s"] = get(layer);
    layers += get(layer);
  }
  m["api.unaccounted_s"] = untraced_s - layers;
  m["graph.gr_edges"] = static_cast<double>(c.gr_edges) / ops;
  m["algo.edges"] = static_cast<double>(c.edges) / ops;
  m["algo.op3_removed_ratio"] =
      c.redundant == 0 ? 0.0 : static_cast<double>(c.removed) / static_cast<double>(c.redundant);
}

/// static_12k: alternating untraced engine::run / traced mirror pairs
/// while the budget lasts, then one intra_threads=1 run as the serial
/// reference of api.batch_efficiency.
trace_result trace_static(const bench& b, const fingerprint& want, double seconds, tracer& tr) {
  trace_result out;
  const api::scenario_spec spec = static_spec(b.size());
  std::vector<double> untraced;
  std::vector<double> traced;
  static_counts c;
  const clock_type::time_point start = clock_type::now();
  double last_pair = 0.0;
  do {
    const clock_type::time_point p0 = clock_type::now();
    fingerprint got;
    untraced.push_back(timed([&] { got = of_run(b.engine().run(spec, b.seed())); }));
    out.check(got == want, "engine::run differs between repeats");
    api::run_report r;
    traced.push_back(timed([&] { r = traced_run(spec, b.seed(), tr); }));
    out.check(of_run(r) == want, "traced mirror differs from engine::run");
    c.add(r);
    last_pair = seconds_since(p0);
  } while (seconds_since(start) + last_pair <= seconds);

  static_metrics(tr, c, static_cast<double>(traced.size()), median(untraced), out.metrics);
  out.metrics["trace_overhead_frac"] = median(traced) / median(untraced) - 1.0;

  api::scenario_spec serial = spec;
  serial.cbtc.intra_threads = 1;
  fingerprint got;
  const double serial_s = timed([&] { got = of_run(b.engine().run(serial, b.seed())); });
  out.check(got == want, "intra_threads=1 run differs from intra_threads=4");
  out.metrics["api.batch_efficiency"] = serial_s / (bench_threads * median(untraced));
  return out;
}

/// table1_sweep: one warm untraced 4-thread batch, then the fixed
/// serial subset untraced (engine::run per seed) and traced (the mirror).
trace_result trace_table1(const bench& b, const fingerprint& want_batch, tracer& tr) {
  trace_result out;
  const api::scenario_spec spec = table1_spec();
  const api::seed_range seeds = b.table1_seeds();
  const std::uint64_t subset = b.size().table1_subset;
  fingerprint got;
  const double wall =
      timed([&] { got = of_batch(b.engine().run_batch(spec, seeds, bench_threads)); });
  out.check(got == want_batch, "run_batch differs between repeats");

  std::vector<fingerprint> want(subset);
  const double serial_s = timed([&] {
    for (std::uint64_t i = 0; i < subset; ++i) want[i] = of_run(b.engine().run(spec, seeds.first + i));
  });
  static_counts c;
  const double traced_s = timed([&] {
    for (std::uint64_t i = 0; i < subset; ++i) {
      const api::run_report r = traced_run(spec, seeds.first + i, tr);
      out.check(of_run(r) == want[i] && want[i].invariants_ok,
                "traced mirror differs from engine::run at seed " + std::to_string(seeds.first + i));
      c.add(r);
    }
  });
  // One op here is the whole subset: layer times and counts are its sums.
  static_metrics(tr, c, 1.0, serial_s, out.metrics);
  out.metrics["trace_overhead_frac"] = traced_s / serial_s - 1.0;
  const double serial_per_seed = serial_s / static_cast<double>(subset);
  out.metrics["api.batch_efficiency"] =
      serial_per_seed * static_cast<double>(seeds.count) / (bench_threads * wall);
  return out;
}

/// Counts of one or more dynamic runs, summed.
struct dynamic_counts {
  std::uint64_t broadcasts{0};
  std::uint64_t deliveries{0};
  std::uint64_t drops{0};
  std::uint64_t beacons{0};
  std::uint64_t reconfig{0};
  std::uint64_t forwards{0};
  std::uint64_t refreshes{0};
  std::uint64_t generated{0};
  std::uint64_t delivered{0};

  void add(const api::dynamic_report& r) {
    broadcasts += r.channel.broadcasts;
    deliveries += r.channel.deliveries;
    drops += r.channel.drops;
    beacons += r.beacons;
    reconfig += reconfig_ops(r);
    forwards += r.traffic.forwards;
    refreshes += r.traffic.route_refreshes;
    generated += r.traffic.generated;
    delivered += r.traffic.delivered;
  }

  void into(metric_map& m, double run_seconds) const {
    m["sim.broadcasts"] = static_cast<double>(broadcasts);
    m["sim.deliveries"] = static_cast<double>(deliveries);
    m["sim.drops"] = static_cast<double>(drops);
    m["proto.beacons"] = static_cast<double>(beacons);
    m["proto.reconfig_ops"] = static_cast<double>(reconfig);
    m["traffic.forwards"] = static_cast<double>(forwards);
    m["traffic.route_refreshes"] = static_cast<double>(refreshes);
    m["traffic.delivery_ratio"] =
        generated == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(generated);
    m["sim.deliveries_per_s"] = static_cast<double>(deliveries) / run_seconds;
  }
};

/// The settled topology size recorded in a dynamic fingerprint.
std::uint64_t full_initial_edges(const fingerprint& f) {
  for (const auto& [name, v] : f.counts) {
    if (name == "initial_edges") return v;
  }
  throw std::logic_error("fingerprint has no initial_edges");
}

/// churn_8k: the full run untraced and traced, the same instance cut
/// at the settle time (proto.settle_s), and the 1-region serial engine
/// (sim.partition_speedup).
trace_result trace_churn(const bench& b, const fingerprint& want, tracer& tr) {
  trace_result out;
  const api::dynamic_scenario d = churn_scenario(b.size().churn_nodes);
  const api::engine& eng = b.engine();

  fingerprint got;
  const double untraced =
      timed([&] { got = of_dynamic(eng.run_dynamic(d.scenario, d.sim, b.seed())); });
  out.check(got == want, "run_dynamic differs between repeats");

  api::sim_spec settle = d.sim;
  settle.horizon = settle.settle;
  const api::dynamic_report s = tr.in("proto.settle", [&] { return eng.run_dynamic(d.scenario, settle, b.seed()); });
  out.check(s.initial_edges == full_initial_edges(want),
            "settle-cut run differs from the full run's prefix");
  const double settle_s = tr.total("proto.settle");

  const int full_id = tr.open("api.run_dynamic");
  const api::dynamic_report full = eng.run_dynamic(d.scenario, d.sim, b.seed());
  const double full_s = tr.close(full_id);
  out.check(of_dynamic(full) == want, "traced run_dynamic differs from untraced");

  api::sim_spec one_region = d.sim;
  one_region.partition.regions = 1;
  const int serial_id = tr.open("sim.serial_engine");
  const api::dynamic_report serial = eng.run_dynamic(d.scenario, one_region, b.seed());
  const double serial_s = tr.close(serial_id);
  out.check(of_dynamic(serial) == want, "1-region run differs from 16 regions");

  dynamic_counts c;
  c.add(full);
  c.into(out.metrics, full_s);
  out.metrics["proto.settle_s"] = settle_s;
  out.metrics["sim.churn_s"] = full_s - settle_s;
  out.metrics["sim.partition_speedup"] = serial_s / full_s;
  out.metrics["trace_overhead_frac"] = full_s / untraced - 1.0;
  return out;
}

/// mobile_sweep: one warm untraced 4-thread batch, then the fixed
/// serial subset untraced and traced (settle cut + full run per seed).
trace_result trace_mobile(const bench& b, const fingerprint& want_batch, tracer& tr) {
  trace_result out;
  const api::dynamic_scenario d = mobile_scenario();
  const api::engine& eng = b.engine();
  const api::seed_range seeds = b.mobile_seeds();
  const std::uint64_t subset = b.size().mobile_subset;
  fingerprint got;
  const double wall = timed(
      [&] { got = of_dynamic_batch(eng.run_batch(d.scenario, d.sim, seeds, bench_threads)); });
  out.check(got == want_batch, "run_batch differs between repeats");

  std::vector<fingerprint> want(subset);
  const double serial_s = timed([&] {
    for (std::uint64_t i = 0; i < subset; ++i) {
      want[i] = of_dynamic(eng.run_dynamic(d.scenario, d.sim, seeds.first + i));
    }
  });
  api::sim_spec settle = d.sim;
  settle.horizon = settle.settle;
  dynamic_counts c;
  for (std::uint64_t i = 0; i < subset; ++i) {
    const std::uint64_t seed = seeds.first + i;
    const api::dynamic_report s =
        tr.in("proto.settle", [&] { return eng.run_dynamic(d.scenario, settle, seed); });
    out.check(s.initial_edges == full_initial_edges(want[i]),
              "settle-cut run differs from the full run's prefix at seed " + std::to_string(seed));
    const api::dynamic_report r =
        tr.in("api.run_dynamic", [&] { return eng.run_dynamic(d.scenario, d.sim, seed); });
    out.check(of_dynamic(r) == want[i] && want[i].invariants_ok,
              "traced run_dynamic differs from untraced at seed " + std::to_string(seed));
    c.add(r);
  }
  const double full_s = tr.total("api.run_dynamic");
  const double settle_s = tr.total("proto.settle");
  c.into(out.metrics, full_s);
  out.metrics["proto.settle_s"] = settle_s;
  out.metrics["sim.churn_s"] = full_s - settle_s;
  out.metrics["trace_overhead_frac"] = full_s / serial_s - 1.0;
  const double serial_per_seed = serial_s / static_cast<double>(subset);
  out.metrics["api.batch_efficiency"] =
      serial_per_seed * static_cast<double>(seeds.count) / (bench_threads * wall);
  return out;
}

/// Runs the untraced op once as the reference (printed, so run.py checks
/// it like any op; it also warms the process up), then the workload's
/// traced procedure against it.
int run_trace_mode(const bench& b, double seconds, const std::string& trace_out) {
  tracer tr;
  trace_result res;
  try {
    const clock_type::time_point t0 = clock_type::now();
    const op_result ref = b.run_op();
    print_op("reference", seconds_since(t0), ref);
    switch (b.kind()) {
      case workload_kind::static_12k: res = trace_static(b, ref.outputs, seconds, tr); break;
      case workload_kind::table1_sweep: res = trace_table1(b, ref.outputs, tr); break;
      case workload_kind::churn_8k: res = trace_churn(b, ref.outputs, tr); break;
      case workload_kind::mobile_sweep: res = trace_mobile(b, ref.outputs, tr); break;
    }
  } catch (const std::exception& e) {
    print_error("trace", e);
    return 1;
  }
  if (!trace_out.empty()) tr.write(trace_out);
  std::string line = "{\"trace\":{";
  bool first = true;
  for (const auto& [name, value] : res.metrics) {
    line += (first ? "" : ",") + quoted(name) + ":" + num(value);
    first = false;
  }
  line += "},\"attempted\":" + std::to_string(res.attempted) + ",\"failures\":[";
  for (std::size_t i = 0; i < res.failures.size(); ++i) {
    line += (i ? "," : "") + quoted(res.failures[i]);
  }
  line += "],\"peak_rss_mb\":" + num(peak_rss_mb()) + "}";
  std::printf("%s\n", line.c_str());
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload static_12k|table1_sweep|churn_8k|"
               "mobile_sweep [--seed N] [--scale full|toy] [--mode op|trace] [--seconds S] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args{
      {"--seed", "0"}, {"--scale", "full"}, {"--mode", "op"}, {"--seconds", "0"}, {"--trace-out", ""}};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing option value");
    args[argv[i]] = argv[i + 1];
  }
  static const std::map<std::string, workload_kind> kinds{
      {"static_12k", workload_kind::static_12k},
      {"table1_sweep", workload_kind::table1_sweep},
      {"churn_8k", workload_kind::churn_8k},
      {"mobile_sweep", workload_kind::mobile_sweep}};
  const auto kind = kinds.find(args["--workload"]);
  if (kind == kinds.end()) usage("unknown --workload");
  if (args["--scale"] != "full" && args["--scale"] != "toy") usage("unknown --scale");
  std::uint64_t seed = 0;
  double seconds = 0.0;
  try {
    seed = std::stoull(args["--seed"]);
    seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    usage("bad --seed or --seconds");
  }
  const bench b(kind->second, seed, args["--scale"] == "toy" ? toy_size : full_size);
  if (args["--mode"] == "op") return run_op_mode(b, seconds);
  if (args["--mode"] == "trace") return run_trace_mode(b, seconds, args["--trace-out"]);
  usage("unknown --mode");
}
