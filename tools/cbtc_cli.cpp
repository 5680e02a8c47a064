// cbtc — command-line topology-control workbench.
//
//   cbtc generate --nodes 100 --region 1500 --seed 1 --out nodes.csv
//   cbtc build    --in nodes.csv --alpha 2.618 --all-opts --svg topo.svg
//   cbtc analyze  --in nodes.csv
//   cbtc compare  --in nodes.csv
//   cbtc sweep    --scenario paper_table1 --seeds 100 --threads 4
//   cbtc sweep    --file scenario.json --seeds 50
//   cbtc sweep    --scenario paper_table1 --save scenario.json
//
// generate: write a random deployment as CSV (uniform | cluster | grid)
// build:    run one scenario through cbtc::api and export the topology
// analyze:  per-instance alpha threshold scan + invariant checks
// compare:  metrics table against the position-based baselines
// sweep:    multi-seed batch of a (named or JSON-file) scenario on the
//           parallel engine; a "sim" section in the file switches the
//           sweep to dynamic (churn / mobility) simulation. --save
//           writes the resolved scenario back out as JSON, so named
//           scenarios can be pinned as experiment config files.
#include <charconv>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "algo/alpha_search.h"
#include "api/api.h"
#include "api/dispatch.h"
#include "exp/table.h"
#include "graph/graph_io.h"
#include "graph/position_io.h"
#include "net/service.h"

namespace {

using namespace cbtc;
namespace schema = api::schema;

/// A bad command line: print the message, then usage, exit 2.
struct usage_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct cli_args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// Numeric option; rejects anything that is not a full number instead
  /// of letting std::stod throw a bare std::invalid_argument.
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    double value = 0.0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      throw usage_error("option --" + key + ": expected a number, got '" + text + "'");
    }
    return value;
  }
  /// Integer option parsed directly (no double round-trip, so 64-bit
  /// seeds survive exactly).
  [[nodiscard]] std::size_t count(const std::string& key, std::size_t fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      throw usage_error("option --" + key + ": expected a non-negative integer, got '" + text +
                        "'");
    }
    return static_cast<std::size_t>(value);
  }
  [[nodiscard]] bool has_flag(const std::string& f) const {
    return std::find(flags.begin(), flags.end(), f) != flags.end();
  }
};

cli_args parse(int argc, char** argv) {
  cli_args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      throw usage_error("unexpected argument: '" + a + "' (options start with --)");
    }
    a = a.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[a] = argv[++i];
    } else {
      args.flags.push_back(a);
    }
  }
  return args;
}

int usage() {
  std::cout <<
      "usage: cbtc_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  generate  --nodes N --region S\n"
      "            [--layout uniform|cluster|grid|ring|tree|star]\n"
      "            [--clusters K --sigma S] [--branching B] [--arms A]\n"
      "            [--seed N] --out FILE.csv\n"
      "  build     --in FILE.csv [--alpha RAD] [--range R] [--exponent N]\n"
      "            [--all-opts | --shrink-back --asym --pairwise]\n"
      "            [--continuous] [--svg FILE] [--dot FILE] [--edges FILE]\n"
      "  analyze   --in FILE.csv [--range R] [--exponent N]\n"
      "  compare   --in FILE.csv [--range R] [--exponent N]\n"
      "  sweep     --scenario NAME | --file SCENARIO.json\n"
      "            [--seeds N] [--first N] [--threads T] [--intra-threads T]\n"
      "            [--regions R]  (dynamic: event-engine region count, 0 = auto)\n"
      "            (both thread knobs share one process-wide pool: T x T\n"
      "             nests via work-stealing, it never multiplies threads)\n"
      "            [--method oracle|protocol|stc|mst|rng|gabriel|yao|knn|max-power]\n"
      "            [--methods m1,m2,...]  (static only: run every method over\n"
      "             the same seeds and print one comparison row per method)\n"
      "            [--gain-aware]  (force the gain-aware op3 pass; non-isotropic\n"
      "             scenarios with --pairwise-style opts route to it anyway)\n"
      "            [--alpha RAD] [--nodes N] [--region S] [--range R]\n"
      "            [--propagation isotropic|shadowing|obstacles]\n"
      "            [--shadow-sigma DB] [--shadow-clamp DB]\n"
      "            [--lifetime] [--policy plain|balanced|cooperative]\n"
      "            [--sink N] [--battery-rounds X]\n"
      "            (a lifetime block — from the JSON file or any of these\n"
      "             four flags — switches the sweep to the battery-attrition\n"
      "             experiment; --sink also selects convergecast rounds)\n"
      "            [--save FILE.json]  (write the resolved scenario, don't run)\n"
      "  sweep     --list           (show registered scenarios)\n"
      "  serve     [--port P] [--bind ADDR] [--threads T]\n"
      "            (scenario shard daemon; trusted networks only — no auth.\n"
      "             --port 0 picks an ephemeral port, printed on startup)\n"
      "  dispatch  --endpoints host:port,host:port,...\n"
      "            + the sweep scenario options; runs the sweep across the\n"
      "            given cbtc_serve shards with results bitwise identical\n"
      "            to the in-process sweep\n"
      "            [--retries N] [--connect-timeout-ms N] [--io-timeout-ms N]\n"
      "  scenarios                  (list static and dynamic registries)\n";
  return 2;
}

int cmd_generate(const cli_args& args) {
  const std::string out = args.get("out", "nodes.csv");
  api::scenario_spec spec;
  api::deployment_spec& d = spec.deploy;
  try {
    d.kind = schema::parse_name(schema::deployment_names, args.get("layout", "uniform"));
  } catch (const std::invalid_argument& e) {
    throw usage_error(std::string("--layout: ") + e.what());
  }
  if (d.kind == api::deployment_kind::fixed) throw usage_error("unknown layout: fixed");
  d.nodes = args.count("nodes", 100);
  d.region_side = args.num("region", 1500.0);
  d.clusters = args.count("clusters", 5);
  d.cluster_sigma = args.num("sigma", d.region_side / 10.0);
  d.grid_jitter = args.num("jitter", 0.3);
  d.tree_branching = args.count("branching", 2);
  d.star_arms = args.count("arms", 4);
  spec.base_seed = 0;  // the generator seed is --seed itself
  const std::vector<geom::vec2> positions = spec.make_positions(args.count("seed", 1));
  graph::save_positions_csv(out, positions);
  std::cout << "wrote " << positions.size() << " positions to " << out << "\n";
  return 0;
}

/// Scenario skeleton shared by the CSV-driven commands: fixed
/// positions, radio from --range / --exponent.
api::scenario_spec csv_spec(const cli_args& args) {
  api::scenario_spec spec;
  spec.deploy = api::deployment_spec::fixed_positions(
      graph::load_positions_csv(args.get("in", "nodes.csv")));
  spec.radio.max_range = args.num("range", 500.0);
  spec.radio.path_loss_exponent = args.num("exponent", 2.0);
  spec.metrics.stretch = false;  // build/compare/analyze never print stretch
  return spec;
}

int cmd_build(const cli_args& args) {
  api::scenario_spec spec = csv_spec(args);
  spec.cbtc.alpha = args.num("alpha", algo::alpha_five_pi_six);
  if (args.has_flag("continuous")) spec.cbtc.mode = algo::growth_mode::continuous;
  if (args.has_flag("all-opts")) {
    spec.opts = algo::optimization_set::all();
  } else {
    spec.opts.shrink_back = args.has_flag("shrink-back");
    spec.opts.asymmetric_removal = args.has_flag("asym");
    spec.opts.pairwise_removal = args.has_flag("pairwise");
  }

  const api::engine eng;
  const api::run_report report = eng.run(spec);

  api::scenario_spec max_power = spec;
  max_power.method = api::method_spec::of_baseline(api::baseline_kind::max_power);
  const api::run_report reference = eng.run(max_power);

  exp::table t({"metric", "topology", "max power"});
  t.add_row({"edges", std::to_string(report.edges), std::to_string(reference.edges)});
  t.add_row({"avg degree", exp::table::num(report.avg_degree),
             exp::table::num(reference.avg_degree)});
  t.add_row({"avg radius", exp::table::num(report.avg_radius),
             exp::table::num(reference.avg_radius)});
  t.add_row({"interference", exp::table::num(report.interference_mean),
             exp::table::num(reference.interference_mean)});
  t.add_row({"cut vertices", std::to_string(report.cut_vertices),
             std::to_string(reference.cut_vertices)});
  t.add_row({"connectivity preserved",
             report.invariants.connectivity_preserved ? "yes" : "NO", "-"});
  t.print(std::cout);
  for (const std::string& v : report.invariants.violations) {
    std::cout << "violation: " << v << "\n";
  }

  const auto& positions = spec.deploy.fixed;
  const geom::bbox region = spec.region();
  if (const std::string svg = args.get("svg", ""); !svg.empty()) {
    graph::save_svg(svg, report.topology, positions, region, {.title = "CBTC topology"});
    std::cout << "wrote " << svg << "\n";
  }
  if (const std::string dot = args.get("dot", ""); !dot.empty()) {
    std::ofstream f(dot);
    graph::write_dot(f, report.topology, positions);
    std::cout << "wrote " << dot << "\n";
  }
  if (const std::string edges = args.get("edges", ""); !edges.empty()) {
    std::ofstream f(edges);
    graph::write_edge_csv(f, report.topology, positions);
    std::cout << "wrote " << edges << "\n";
  }
  return report.invariants.ok() ? 0 : 1;
}

int cmd_analyze(const cli_args& args) {
  const api::scenario_spec spec = csv_spec(args);
  const auto& positions = spec.deploy.fixed;
  const radio::power_model pm = spec.power();

  const auto scan = algo::scan_alpha(positions, pm, geom::pi / 3.0, 1.2 * geom::pi, 16);
  exp::table t({"alpha/pi", "connectivity preserved"});
  for (const auto& s : scan.samples) {
    t.add_row({exp::table::num(s.alpha / geom::pi, 3), s.preserved ? "yes" : "no"});
  }
  t.print(std::cout);

  const double threshold = algo::max_preserving_alpha(positions, pm, algo::alpha_five_pi_six,
                                                      1.99 * geom::pi, 1e-3);
  std::cout << "\nempirical per-instance threshold: alpha = " << threshold << " ("
            << exp::table::num(threshold / geom::pi, 3) << " pi)\n"
            << "theorem guarantee (worst case):   alpha = 5*pi/6 (0.833 pi)\n";
  return 0;
}

int cmd_compare(const cli_args& args) {
  api::scenario_spec base = csv_spec(args);
  base.cbtc.mode = algo::growth_mode::continuous;
  base.opts = algo::optimization_set::all();

  std::vector<std::pair<std::string, api::method_spec>> rows{
      {"CBTC all-op 5pi/6", api::method_spec::oracle()},
      {"Euclidean MST", api::method_spec::of_baseline(api::baseline_kind::euclidean_mst)},
      {"RNG", api::method_spec::of_baseline(api::baseline_kind::relative_neighborhood)},
      {"Gabriel", api::method_spec::of_baseline(api::baseline_kind::gabriel)},
      {"Yao (6 cones)", api::method_spec::of_baseline(api::baseline_kind::yao)},
      {"max power", api::method_spec::of_baseline(api::baseline_kind::max_power)},
  };

  const api::engine eng;
  exp::table t({"topology", "edges", "avg degree", "avg radius", "interference", "preserved"});
  for (const auto& [name, method] : rows) {
    api::scenario_spec spec = base;
    spec.method = method;
    const api::run_report r = eng.run(spec);
    t.add_row({name, std::to_string(r.edges), exp::table::num(r.avg_degree),
               exp::table::num(r.avg_radius), exp::table::num(r.interference_mean, 1),
               r.invariants.connectivity_preserved ? "yes" : "no"});
  }
  t.print(std::cout);
  return 0;
}

/// Prints one row per exp::summary of batch `b` that saw a run, in
/// field-table order, labelled with the field name.
template <class Batch>
void print_summaries(const Batch& b, const char* header) {
  exp::table t({header, "mean", "stddev", "min", "max"});
  for_each_field(
      [&t](std::string_view name, const auto& s) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(s)>, exp::summary>) {
          if (s.count() == 0) return;
          t.add_row({std::string(name), exp::table::num(s.mean(), 3),
                     exp::table::num(s.stddev(), 3), exp::table::num(s.min(), 3),
                     exp::table::num(s.max(), 3)});
        }
      },
      b);
  t.print(std::cout);
}

/// Prints a dynamic sweep's aggregates and returns the process exit code.
int print_dynamic_sweep(const api::scenario_spec& spec, const api::dynamic_batch_report& b,
                        api::seed_range seeds) {
  std::cout << "dynamic scenario " << spec.name << " (" << api::method_name(spec.method)
            << "), seeds [" << seeds.first << ", " << seeds.first + seeds.count << "), " << b.runs
            << " runs\n\n";
  print_summaries(b, "metric");
  std::cout << "\nfinal connectivity preserved: " << (b.runs - b.final_connectivity_failures)
            << "/" << b.runs << "\npartitioned runs: " << b.partitioned_runs
            << ", unrepaired disruptions: " << b.unrepaired_disruptions << "\n";
  return b.final_connectivity_failures == 0 ? 0 : 1;
}

/// Prints a lifetime sweep's aggregates; always exits 0 (lifetime runs
/// have no pass/fail invariant — the rounds are the result).
int print_lifetime_sweep(const api::scenario_spec& spec, const api::lifetime_spec& life,
                         const api::lifetime_batch_report& b, api::seed_range seeds) {
  std::cout << "lifetime scenario " << spec.name << " (" << api::method_name(spec.method)
            << ", policy " << schema::name_of(schema::lifetime_policy_names, life.policy)
            << (life.convergecast ? ", convergecast sink " + std::to_string(life.sink) : "")
            << "), seeds [" << seeds.first << ", " << seeds.first + seeds.count << "), " << b.runs
            << " runs\n\n";
  print_summaries(b, "rounds until");
  return 0;
}

/// Lists both registries (also serves `sweep --list`).
int cmd_scenarios() {
  std::cout << "static scenarios:\n";
  for (const std::string& name : api::scenario_names()) std::cout << "  " << name << "\n";
  std::cout << "dynamic scenarios (scenario + sim presets):\n";
  for (const std::string& name : api::dynamic_scenario_names()) std::cout << "  " << name << "\n";
  return 0;
}

/// Scenario + optional sim + optional lifetime resolved from
/// --scenario/--file plus the command-line overrides (shared by sweep
/// and dispatch).
struct sweep_setup {
  api::scenario_spec spec;
  std::optional<api::sim_spec> sim;
  std::optional<api::lifetime_spec> lifetime;
};

sweep_setup resolve_sweep(const cli_args& args) {
  std::optional<api::sim_spec> sim;
  std::optional<api::lifetime_spec> lifetime;
  api::scenario_spec spec;
  if (const std::string file = args.get("file", ""); !file.empty()) {
    api::scenario_file loaded = api::load_scenario_file(file);
    spec = std::move(loaded.scenario);
    sim = loaded.sim;
    lifetime = loaded.lifetime;
    if (spec.name.empty()) spec.name = file;
  } else {
    const std::string name = args.get("scenario", "paper_table1");
    if (auto found = api::find_scenario(name)) {
      spec = *std::move(found);
    } else if (auto dyn = api::find_dynamic_scenario(name)) {
      spec = std::move(dyn->scenario);
      sim = dyn->sim;
    } else {
      std::ostringstream msg;
      msg << "unknown scenario '" << name << "'; try one of:";
      for (const std::string& n : api::scenario_names()) msg << " " << n;
      for (const std::string& n : api::dynamic_scenario_names()) msg << " " << n;
      throw usage_error(msg.str());
    }
  }

  // Command-line overrides on top of the named scenario.
  if (args.options.contains("method")) {
    try {
      spec.method = api::parse_method(args.get("method", ""));
    } catch (const std::invalid_argument& e) {
      throw usage_error(e.what());
    }
  }
  if (args.has_flag("gain-aware")) spec.opts.gain_aware = true;
  if (args.options.contains("alpha")) spec.cbtc.alpha = args.num("alpha", spec.cbtc.alpha);
  if (args.options.contains("nodes")) spec.deploy.nodes = args.count("nodes", spec.deploy.nodes);
  if (args.options.contains("region")) {
    spec.deploy.region_side = args.num("region", spec.deploy.region_side);
  }
  if (args.options.contains("range")) {
    spec.radio.max_range = args.num("range", spec.radio.max_range);
  }
  if (args.options.contains("propagation")) {
    radio::propagation_kind kind{};
    try {
      kind = schema::parse_name(schema::propagation_names, args.get("propagation", ""));
    } catch (const std::invalid_argument& e) {
      throw usage_error(std::string("--propagation: ") + e.what());
    }
    // Only the kind flips: sigma/clamp/seed and the obstacle geometry
    // come from the scenario (registry preset or JSON file), with
    // --shadow-* on top below; isotropic drops them.
    if (kind == radio::propagation_kind::isotropic) spec.radio.propagation = {};
    if (kind == radio::propagation_kind::obstacle_field &&
        spec.radio.propagation.obstacles.empty()) {
      throw usage_error("--propagation obstacles needs a scenario that defines obstacles "
                        "(e.g. --scenario urban_obstacles or a JSON file)");
    }
    spec.radio.propagation.kind = kind;
  }
  if (spec.radio.propagation.kind == radio::propagation_kind::lognormal_shadowing) {
    spec.radio.propagation.sigma_db =
        args.num("shadow-sigma", spec.radio.propagation.sigma_db);
    spec.radio.propagation.clamp_db =
        args.num("shadow-clamp", spec.radio.propagation.clamp_db);
  } else if (args.options.contains("shadow-sigma") || args.options.contains("shadow-clamp")) {
    throw usage_error("--shadow-sigma/--shadow-clamp need shadowing propagation "
                      "(pass --propagation shadowing or a shadowed scenario)");
  }
  if (args.options.contains("intra-threads")) {
    spec.cbtc.intra_threads =
        static_cast<unsigned>(args.count("intra-threads", spec.cbtc.intra_threads));
  }
  if (args.options.contains("regions")) {
    if (!sim) {
      throw usage_error("--regions applies to dynamic scenarios only "
                        "(pick a dynamic preset or a JSON file with a sim block)");
    }
    sim->partition.regions = static_cast<std::uint32_t>(args.count("regions", 0));
  }

  // Lifetime flags: any of them switches the sweep to the
  // battery-attrition experiment (on top of a file's lifetime block).
  const bool lifetime_flags = args.has_flag("lifetime") || args.options.contains("policy") ||
                              args.options.contains("sink") ||
                              args.options.contains("battery-rounds");
  if (lifetime_flags && !lifetime) lifetime.emplace();
  if (lifetime) {
    if (args.options.contains("policy")) {
      try {
        lifetime->policy =
            schema::parse_name(schema::lifetime_policy_names, args.get("policy", ""));
      } catch (const std::invalid_argument& e) {
        throw usage_error(e.what());
      }
    }
    if (args.options.contains("sink")) {
      lifetime->sink = static_cast<graph::node_id>(args.count("sink", lifetime->sink));
      lifetime->convergecast = true;
    }
    lifetime->battery_rounds = args.num("battery-rounds", lifetime->battery_rounds);
  }
  return {std::move(spec), sim, lifetime};
}

/// Seed range of a sweep/dispatch invocation (--first / --seeds).
api::seed_range sweep_seeds(const cli_args& args) {
  return {static_cast<std::uint64_t>(args.count("first", 0)),
          static_cast<std::uint64_t>(args.count("seeds", 20))};
}

/// Prints a static sweep's aggregates and returns the process exit
/// code. Shared by sweep and dispatch so their outputs diff clean.
int print_static_sweep(const api::scenario_spec& spec, const api::batch_report& b,
                       api::seed_range seeds) {
  std::cout << "scenario " << spec.name << " (" << api::method_name(spec.method) << "), seeds ["
            << seeds.first << ", " << seeds.first + seeds.count << "), " << b.runs << " runs\n\n";
  print_summaries(b, "metric");
  std::cout << "\nconnectivity preserved: " << (b.runs - b.connectivity_failures) << "/" << b.runs
            << "\n";
  return b.connectivity_failures == 0 ? 0 : 1;
}

/// --methods m1,m2,...: one static batch per method over the same
/// seeds and scenario, one comparison row per method (the CBTC-vs-STC
/// degree / power stretch / connectivity race across propagation
/// presets).
int print_method_comparison(api::scenario_spec spec, const std::string& list,
                            api::seed_range seeds, unsigned threads) {
  std::vector<api::method_spec> methods;
  std::stringstream ss(list);
  for (std::string tok; std::getline(ss, tok, ',');) {
    if (tok.empty()) continue;
    try {
      methods.push_back(api::parse_method(tok));
    } catch (const std::invalid_argument& e) {
      throw usage_error(e.what());
    }
  }
  if (methods.empty()) throw usage_error("--methods needs a comma-separated method list");

  std::cout << "scenario " << spec.name << ", seeds [" << seeds.first << ", "
            << seeds.first + seeds.count << "), method comparison\n\n";
  exp::table t({"method", "edges", "avg degree", "avg tx power", "power stretch", "stretch max",
                "hop stretch", "preserved"});
  const api::engine eng;
  std::size_t failures = 0;
  for (const api::method_spec& m : methods) {
    spec.method = m;
    const api::batch_report b = eng.run_batch(spec, seeds, threads);
    t.add_row({api::method_name(m), exp::table::num(b.edges.mean(), 1),
               exp::table::num(b.degree.mean(), 2), exp::table::num(b.tx_power.mean(), 0),
               exp::table::num(b.power_stretch.mean(), 3),
               exp::table::num(b.power_stretch.max(), 3), exp::table::num(b.hop_stretch.mean(), 3),
               std::to_string(b.runs - b.connectivity_failures) + "/" + std::to_string(b.runs)});
    failures += b.connectivity_failures;
  }
  t.print(std::cout);
  std::cout << "\nconnectivity preserved: all methods" << (failures == 0 ? " ok" : ": FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}

int cmd_sweep(const cli_args& args) {
  if (args.has_flag("list")) return cmd_scenarios();
  auto [spec, sim, lifetime] = resolve_sweep(args);

  if (const std::string save = args.get("save", ""); !save.empty()) {
    api::save_scenario_file(save, {.scenario = spec, .sim = sim, .lifetime = lifetime});
    std::cout << "wrote scenario '" << spec.name << "' to " << save << "\n";
    return 0;
  }

  const api::seed_range seeds = sweep_seeds(args);
  const auto threads = static_cast<unsigned>(args.count("threads", 0));

  if (args.options.contains("methods")) {
    if (sim || lifetime) {
      throw usage_error("--methods compares static sweeps only (no sim/lifetime block)");
    }
    return print_method_comparison(std::move(spec), args.get("methods", ""), seeds, threads);
  }

  const api::engine eng;
  if (lifetime) {
    return print_lifetime_sweep(spec, *lifetime, eng.run_batch(spec, *lifetime, seeds, threads),
                                seeds);
  }
  if (sim) {
    return print_dynamic_sweep(spec, eng.run_batch(spec, *sim, seeds, threads), seeds);
  }
  return print_static_sweep(spec, eng.run_batch(spec, seeds, threads), seeds);
}

int cmd_serve(const cli_args& args) {
  net::serve_config cfg;
  cfg.bind_address = args.get("bind", "127.0.0.1");
  cfg.port = static_cast<std::uint16_t>(args.count("port", 0));
  cfg.threads = static_cast<unsigned>(args.count("threads", 0));
  net::scenario_server server(cfg);
  // Machine-readable startup line (the smoke scripts scrape the port).
  std::cout << "cbtc_serve listening on " << cfg.bind_address << ":" << server.port()
            << std::endl;
  server.run();
  return 0;
}

int cmd_dispatch(const cli_args& args) {
  const std::string endpoints = args.get("endpoints", "");
  if (endpoints.empty()) {
    throw usage_error("dispatch needs --endpoints host:port[,host:port...]");
  }
  auto [spec, sim, lifetime] = resolve_sweep(args);

  api::dispatch_config cfg;
  try {
    cfg.endpoints = api::parse_endpoint_list(endpoints);
  } catch (const std::invalid_argument& e) {
    throw usage_error(e.what());
  }
  cfg.shard_threads = static_cast<unsigned>(args.count("threads", 0));
  cfg.max_block_retries = args.count("retries", cfg.max_block_retries);
  cfg.connect_timeout_ms = static_cast<int>(
      args.count("connect-timeout-ms", static_cast<std::size_t>(cfg.connect_timeout_ms)));
  cfg.io_timeout_ms = static_cast<int>(
      args.count("io-timeout-ms", static_cast<std::size_t>(cfg.io_timeout_ms)));

  const api::seed_range seeds = sweep_seeds(args);
  api::shard_dispatcher dispatcher(cfg);

  // stdout carries exactly the sweep's report (so a dispatched run
  // diffs clean against an in-process one); dispatch telemetry goes
  // to stderr.
  int rc = 0;
  if (lifetime) {
    rc = print_lifetime_sweep(spec, *lifetime, dispatcher.run_batch(spec, *lifetime, seeds),
                              seeds);
  } else if (sim) {
    rc = print_dynamic_sweep(spec, dispatcher.run_batch(spec, *sim, seeds), seeds);
  } else {
    rc = print_static_sweep(spec, dispatcher.run_batch(spec, seeds), seeds);
  }
  const api::dispatch_stats& st = dispatcher.stats();
  std::cerr << "dispatch: " << st.blocks << " blocks over " << cfg.endpoints.size()
            << " endpoints, " << st.requests << " requests, " << st.requeued_blocks
            << " requeued, " << st.duplicate_partials << " duplicate partials, "
            << st.connection_failures << " connection failures, " << st.dead_endpoints
            << " dead endpoints\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli_args args = parse(argc, argv);
    if (args.command == "generate") return cmd_generate(args);
    if (args.command == "build") return cmd_build(args);
    if (args.command == "analyze") return cmd_analyze(args);
    if (args.command == "compare") return cmd_compare(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "dispatch") return cmd_dispatch(args);
    if (args.command == "scenarios") return cmd_scenarios();
  } catch (const usage_error& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
