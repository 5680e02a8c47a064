// Table 1 of the paper (Li et al., PODC 2001; full version arXiv
// cs/0209012), pinned: average degree and radius of CBTC(alpha) under
// each optimization, over 100 random networks of 100 nodes (the
// `paper_table1` scenario, seeds 0-99) with continuous growth — the
// workload bench_table1 prints. Cells we reproduce are held to the
// paper within a stated tolerance (degree +-0.15, radius +-1%). Cells
// that deviate are pinned at today's value +-1% and each is marked as
// a known deviation; README.md, "Fidelity to the paper", discusses
// them. Every run must also preserve the connectivity of G_R.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/api.h"

namespace cbtc::api {
namespace {

/// A cell's target value and the allowed absolute distance from it.
struct pin {
  double value;
  double tolerance;
};

/// A cell that matches the paper: degree within 0.15 of it.
pin paper_degree(double v) { return {v, 0.15}; }
/// A cell that matches the paper: radius within 1% of it.
pin paper_radius(double v) { return {v, 0.01 * v}; }
/// A known deviation from the paper: today's value, within 1%.
pin deviation(double v) { return {v, 0.01 * v}; }

struct row {
  std::string name;
  double alpha;  // 0 = max power (no topology control)
  algo::optimization_set opts;
  pin degree;
  pin radius;
};

TEST(PaperTable1, RowsMatchThePaperOrTheirPinnedDeviations) {
  scenario_spec base = get_scenario("paper_table1");
  base.cbtc.mode = algo::growth_mode::continuous;
  base.metrics = {.stretch = false, .interference = false, .robustness = false};

  const double a56 = algo::alpha_five_pi_six;
  const double a23 = algo::alpha_two_pi_three;
  using opt = algo::optimization_set;
  const opt none{};
  const opt op1{.shrink_back = true};
  const opt op2{.asymmetric_removal = true};
  const opt op12{.shrink_back = true, .asymmetric_removal = true};
  const opt all = opt::all();

  const std::vector<row> rows{
      {"basic a=5pi/6", a56, none, paper_degree(12.3), paper_radius(436.8)},
      {"basic a=2pi/3", a23, none, paper_degree(15.4), paper_radius(457.4)},
      // Known deviation: the paper has 10.3 / 373.7.
      {"op1 a=5pi/6", a56, op1, deviation(9.598), deviation(349.85)},
      // Known deviation: the paper has 12.8 / 398.1.
      {"op1 a=2pi/3", a23, op1, deviation(11.499), deviation(366.50)},
      // Known deviation: the paper has 7.0 / 276.8.
      {"op1+op2 a=2pi/3", a23, op12, deviation(6.706), deviation(267.92)},
      // Known deviation in degree: the paper has 3.6.
      {"all op a=5pi/6", a56, all, deviation(2.782), paper_radius(155.9)},
      // Known deviation in degree: the paper has 3.6.
      {"all op a=2pi/3", a23, all, deviation(2.894), paper_radius(160.6)},
      // Known deviation in degree: the paper has 25.6. The radius is R
      // by the paper's convention.
      {"max power", 0.0, none, deviation(25.191), paper_radius(500.0)},
      // The paper's Section 5 text gives this row's radius only; the
      // degree has no paper value and is pinned at today's.
      {"basic+op2 a=2pi/3", a23, op2, deviation(7.601), paper_radius(301.2)},
  };

  const engine eng;
  for (const row& r : rows) {
    SCOPED_TRACE(r.name);
    scenario_spec spec = base;
    if (r.alpha == 0.0) {
      spec.method = method_spec::of_baseline(baseline_kind::max_power);
    } else {
      spec.cbtc.alpha = r.alpha;
      spec.opts = r.opts;
    }
    const batch_report b = eng.run_batch(spec, {0, 100}, 4);
    ASSERT_EQ(b.runs, 100u);
    EXPECT_EQ(b.connectivity_failures, 0u);
    EXPECT_NEAR(b.degree.mean(), r.degree.value, r.degree.tolerance);
    EXPECT_NEAR(b.radius.mean(), r.radius.value, r.radius.tolerance);
  }
}

}  // namespace
}  // namespace cbtc::api
