// Reproduces Table 1 of the paper:
//
//   "Average degree and radius of the cone-based topology control
//    algorithm with different alpha and optimizations
//    (op1 - shrink-back, op2 - asymmetric edge removal,
//     op3 - pairwise edge removal)."
//
// Workload (Section 5): 100 random networks, 100 nodes each, uniform in
// a 1500 x 1500 region, maximum transmission radius 500 — the
// `paper_table1` scenario of the cbtc::api registry. Metrics are
// averaged over nodes, then over networks; every row is one scenario
// variation run as a multi-seed batch through the parallel engine.
//
// Growth mode: continuous (idealized growth, power grows to exactly the
// next undiscovered neighbor). This reproduces the paper's basic-row
// numbers almost exactly (12.3/436.8 and 15.4/457.4), which indicates
// the authors' simulator modeled idealized growth rather than the
// Increase(p) = 2p schedule of Figure 1. Pass --discrete to measure the
// deployable doubling schedule instead (degrees rise by ~2 from the
// overshoot). README.md, "Fidelity to the paper", compares every row
// with the paper; tests/paper_table1_test.cpp pins them.
//
// Usage: bench_table1 [networks] [csv_path] [--discrete] [--threads N]
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/api.h"
#include "exp/table.h"

namespace {

using namespace cbtc;

struct row_config {
  std::string name;
  double paper_degree;
  double paper_radius;
  double alpha;  // 0 = max power (no topology control)
  algo::optimization_set opts;
};

}  // namespace

int main(int argc, char** argv) {
  algo::growth_mode mode = algo::growth_mode::continuous;
  unsigned threads = 0;  // 0 = hardware concurrency
  std::uint64_t networks = 100;
  std::string csv_path = "table1.csv";
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size();) {
      if (args[i] == "--discrete") {
        mode = algo::growth_mode::discrete;
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (args[i] == "--threads") {
        if (i + 1 >= args.size()) throw std::invalid_argument("--threads needs a value");
        threads = static_cast<unsigned>(std::stoul(args[i + 1]));
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      } else {
        ++i;
      }
    }
    if (!args.empty()) networks = std::stoul(args[0]);
    if (args.size() > 1) csv_path = args[1];
  } catch (const std::exception&) {
    std::cerr << "usage: bench_table1 [networks] [csv_path] [--discrete] [--threads N]\n";
    return 2;
  }

  // The paper's workload, shared by every row; rows vary alpha + opts.
  api::scenario_spec base = api::get_scenario("paper_table1");
  base.cbtc.mode = mode;
  base.metrics = {.stretch = false, .interference = false, .robustness = false};

  const double a56 = algo::alpha_five_pi_six;
  const double a23 = algo::alpha_two_pi_three;
  using opt = algo::optimization_set;
  const opt none{};
  const opt op1{.shrink_back = true};
  const opt op12{.shrink_back = true, .asymmetric_removal = true};
  const opt all = opt::all();

  // Paper values from Table 1 (degree, radius).
  std::vector<row_config> configs{
      {"basic a=5pi/6", 12.3, 436.8, a56, none},
      {"basic a=2pi/3", 15.4, 457.4, a23, none},
      {"op1 a=5pi/6", 10.3, 373.7, a56, op1},
      {"op1 a=2pi/3", 12.8, 398.1, a23, op1},
      {"op1+op2 a=2pi/3", 7.0, 276.8, a23, op12},
      {"all op a=5pi/6", 3.6, 155.9, a56, all},
      {"all op a=2pi/3", 3.6, 160.6, a23, all},
      {"max power", 25.6, 500.0, 0.0, none},
  };
  // Bonus row from the Section 5 text: basic + op2 radius 301.2.
  configs.push_back({"basic+op2 a=2pi/3 (text)", -1.0, 301.2, a23,
                     opt{.asymmetric_removal = true}});

  const api::engine eng;
  const api::seed_range seeds{0, networks};
  std::vector<api::batch_report> cells;
  cells.reserve(configs.size());
  std::size_t connectivity_failures = 0;

  for (const row_config& cfg : configs) {
    api::scenario_spec spec = base;
    if (cfg.alpha == 0.0) {  // max power: nominal radius R, as in the paper
      spec.method = api::method_spec::of_baseline(api::baseline_kind::max_power);
    } else {
      spec.cbtc.alpha = cfg.alpha;
      spec.opts = cfg.opts;
    }
    cells.push_back(eng.run_batch(spec, seeds, threads));
    connectivity_failures += cells.back().connectivity_failures;
  }

  std::cout << "Table 1 reproduction: " << networks << " networks x " << base.deploy.nodes
            << " nodes, region " << base.deploy.region_side << "^2, R = " << base.radio.max_range
            << ", growth: "
            << (mode == algo::growth_mode::continuous ? "continuous (paper-matching)"
                                                      : "discrete Increase(p)=2p")
            << "\n(paper values from Li et al., PODC 2001, Table 1)\n\n";

  exp::table out({"configuration", "degree (paper)", "degree (ours)", "radius (paper)",
                  "radius (ours)", "radius stddev"});
  for (std::size_t c = 0; c < configs.size(); ++c) {
    out.add_row({configs[c].name,
                 configs[c].paper_degree < 0 ? "-" : exp::table::num(configs[c].paper_degree),
                 exp::table::num(cells[c].degree.mean()),
                 exp::table::num(configs[c].paper_radius),
                 exp::table::num(cells[c].radius.mean()),
                 exp::table::num(cells[c].radius.stddev())});
  }
  out.print(std::cout);

  std::cout << "\nconnectivity preserved in all runs: "
            << (connectivity_failures == 0 ? "yes" : "NO -- " +
                    std::to_string(connectivity_failures) + " failures")
            << "\n";

  std::ofstream csv(csv_path);
  csv << "configuration,degree_paper,degree_ours,radius_paper,radius_ours,radius_std\n";
  for (std::size_t c = 0; c < configs.size(); ++c) {
    csv << configs[c].name << ',' << configs[c].paper_degree << ',' << cells[c].degree.mean()
        << ',' << configs[c].paper_radius << ',' << cells[c].radius.mean() << ','
        << cells[c].radius.stddev() << '\n';
  }
  std::cout << "wrote " << csv_path << "\n";
  return connectivity_failures == 0 ? 0 : 1;
}
