#!/usr/bin/env python3
"""End-to-end benchmark of the cbtc library: whole runs, timed from outside.

Run from the repository root:

    python3 e2ebench/run.py --workload static_12k --seed 0 --seconds 28 --trace 0

Builds e2ebench/ (the library from src/ plus the e2ebench binary) into
$CARGO_TARGET_DIR or .bench_build, then measures one workload:

* --trace 0: SETUPS fresh processes each run the workload's op once cold
  (setup_s is their median), then warm ops back to back for their share of
  --seconds (wall_s is the median of all warm ops). Spreading the warm ops
  over the whole run averages out slow spells on a shared machine. Prints
  every end-to-end metric.
* --trace 1: one process runs the traced variant (spans around every call
  into a layer, written to <build dir>/trace-<workload>-<seed>.json) and
  prints every per-layer metric.

Every op's outputs are checked: it must not throw, must keep its
connectivity invariant and, at the default seed 0, must match the pins in
pins.json (counts exactly, scalars to a relative 1e-9). Other seeds skip
the pins but still require every op of the run to agree with the first.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("static_12k", "table1_sweep", "churn_8k", "mobile_sweep")
DEADLINE_S = 170.0  # the whole run, build excluded
SETUPS = 3  # fresh processes whose cold first op gives setup_s
SCALAR_RTOL = 1e-9


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds e2ebench; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--parallel", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(build_dir, "e2ebench")


def run_binary(cmd, deadline):
    """Runs one harness process; returns its stdout lines parsed as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:  # subprocess.run has killed and reaped it
        raise BenchError("timed out: " + " ".join(cmd)) from e
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: " + " ".join(cmd))
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def output_mismatches(got, want):
    """Names of fingerprint fields where `got` misses the pinned `want`."""
    bad = []
    for name, value in want["counts"].items():
        if got["counts"].get(name) != value:
            bad.append(f"{name}={got['counts'].get(name)} (pin {value})")
    for name, value in want["scalars"].items():
        have = got["scalars"].get(name)
        if have is None or not math.isclose(have, value, rel_tol=SCALAR_RTOL, abs_tol=1e-12):
            bad.append(f"{name}={have} (pin {value})")
    return bad


class checker:
    """Counts ops and their failures: a throw, a broken invariant, a missed
    pin (seed 0) or, on other seeds, a disagreement with the run's first op."""

    def __init__(self, pin):
        self.pin = pin
        self.reference = None
        self.attempted = 0
        self.failures = []

    def check(self, op):
        self.attempted += 1
        if "error" in op:
            self.failures.append(f"{op['op']}: threw: {op['error']}")
            return False
        outputs = op["outputs"]
        bad = [] if outputs["invariants_ok"] else ["connectivity invariant broken"]
        want = self.pin if self.pin is not None else self.reference
        if want is not None:
            bad += output_mismatches(outputs, want)
        else:
            self.reference = outputs
        if bad:
            self.failures.append(f"{op['op']}: " + "; ".join(bad))
        return not bad


def measure(binary, args, pin, deadline):
    """--trace 0: cold setups plus a warm closed loop."""
    chk = checker(pin)
    cold, warm, rss = [], [], []
    instances = None
    for _ in range(SETUPS):
        lines = run_binary([binary, "--workload", args.workload, "--seed", str(args.seed),
                            "--scale", args.scale, "--mode", "op",
                            "--seconds", str(args.seconds / SETUPS)], deadline)
        for line in lines:
            if "peak_rss_mb" in line:
                rss.append(line["peak_rss_mb"])
                continue
            chk.check(line)
            if "error" not in line:  # a wrong result still took its time
                (cold if line["op"] == "cold" else warm).append(line["wall_s"])
                instances = line["instances"]
    if not cold or not warm or not rss:
        raise BenchError("no op completed: " + "; ".join(chk.failures))
    wall = statistics.median(warm)
    values = {
        "wall_s": wall,
        "instances_per_s": instances / wall,
        "setup_s": statistics.median(cold),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"wall_s": warm, "instances_per_s": [instances / w for w in warm],
               "setup_s": cold, "peak_rss_mb": rss}
    return chk, values, samples


def trace(binary, args, pin, deadline, build_dir):
    """--trace 1: the traced run's per-layer metrics."""
    chk = checker(pin)
    out = os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")
    lines = run_binary([binary, "--workload", args.workload, "--seed", str(args.seed),
                        "--scale", args.scale, "--mode", "trace", "--seconds", str(args.seconds),
                        "--trace-out", out], deadline)
    result = None
    for line in lines:
        if "trace" in line:
            result = line
        else:
            chk.check(line)
    if result is None:
        raise BenchError("traced run printed no metrics: " + "; ".join(chk.failures))
    chk.attempted += result["attempted"]
    chk.failures += result["failures"]
    log(f"trace spans written to {out}")
    return chk, result["trace"], {}


def fmt(value):
    return f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="warm-loop budget (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: seconds-long sizes for the smoke test")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this workload's seed-0 outputs in pins.json and exit")
    args = parser.parse_args(argv)
    start = time.monotonic()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        binary = build(build_dir)
        deadline = time.monotonic() + DEADLINE_S
        pins_path = os.path.join(HERE, "pins.json")
        with open(pins_path) as f:
            pins = json.load(f)
        if args.write_pins:
            ops = run_binary([binary, "--workload", args.workload, "--scale", args.scale,
                              "--mode", "op"], deadline)
            pins.setdefault(args.scale, {})[args.workload] = {
                k: ops[0]["outputs"][k] for k in ("counts", "scalars")}
            with open(pins_path, "w") as f:
                json.dump(pins, f, indent=2, sort_keys=True)
                f.write("\n")
            log(f"pinned {args.scale}/{args.workload}")
            return 0
        pin = pins[args.scale][args.workload] if args.seed == 0 else None
        if args.trace:
            wanted = spec["per_layer"]
            chk, values, samples = trace(binary, args, pin, deadline, build_dir)
            unknown = set(values) - {m["name"] for m in wanted}
            if unknown:
                raise BenchError("metrics not in BENCHMARK.json: " + ", ".join(sorted(unknown)))
            # A layer this workload does not exercise reads 0.
            values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
        else:
            wanted = spec["end_to_end"]
            chk, values, samples = measure(binary, args, pin, deadline)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"e2ebench: {e}")
        return 1

    failed = len(chk.failures)
    for failure in chk.failures:
        log(f"FAILED {failure}")
    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"({time.monotonic() - start:.1f} s)")
    for m in wanted:
        line = f"{m['name']:<26} {fmt(values[m['name']]):>12} {m['unit']}"
        runs = samples.get(m["name"])
        if runs:
            line += (f"   median of n={len(runs)}, min {fmt(min(runs))}, "
                     f"max {fmt(max(runs))}")
        print(line)
    print(f"{'failed_frac':<26} {fmt(failed / chk.attempted):>12} "
          f"   ({failed} of {chk.attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": chk.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
