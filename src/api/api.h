// cbtc::api — the library's single front door.
//
//   #include "api/api.h"
//
//   cbtc::api::engine eng;
//   auto spec  = cbtc::api::get_scenario("paper_table1");
//   auto one   = eng.run(spec);                        // one instance
//   auto batch = eng.run_batch(spec, {0, 100}, 4);     // 100 seeds, 4 threads
//
//   cbtc::api::sim_spec dyn;                           // churn / mobility
//   dyn.failures = {.random_crashes = 5, .window_begin = 20, .window_end = 40};
//   auto report = eng.run_dynamic(spec, dyn);
//
// See scenario.h (what to run), sim_spec.h (what happens over time),
// report.h (what you get back), engine.h (how it runs), registry.h
// (canonical workloads), serialize.h (JSON scenario files), schema.h
// (their field tables and enum names).
#pragma once

#include "api/engine.h"     // IWYU pragma: export
#include "api/registry.h"   // IWYU pragma: export
#include "api/report.h"     // IWYU pragma: export
#include "api/schema.h"     // IWYU pragma: export
#include "api/scenario.h"   // IWYU pragma: export
#include "api/serialize.h"  // IWYU pragma: export
#include "api/sim_spec.h"   // IWYU pragma: export
