#!/usr/bin/env python3
"""Perf ledger for liblgg: three reference LGG runs, end to end and per layer.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload sparse_1k --seed 1 --seconds 45 --trace 0

builds liblgg and the lgg_perfbench harness from source into .bench_build/,
runs the workload, checks its outputs, and prints a metric table followed by
one JSON line {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.  The exit code
is 0 only when every checked operation passed.

Other modes (see README.md):

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/run.py ab --parent DIR --change DIR [--pairs 10] ...
    python3 perfbench/run.py selftest
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 1
WORKLOADS = ("sparse_1k", "relay_grid_65k", "durable_observed_1k")
GOLDEN = HERE / "golden.json"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds lgg_perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no liblgg sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = BUILD / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(log, "w") as f:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", "lgg_perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed, see {log}")
    return out / "lgg_perfbench"


def ledger_metrics(trace):
    """Names the ledger (BENCHMARK.json) gates in this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_golden(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read golden digests {path}: {e}")


def run_workload(args):
    binary = build()
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    if args.horizon:
        cmd += ["--horizon", str(args.horizon)]
    if args.trace:
        trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within 170 s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"lgg_perfbench exited {proc.returncode} without a report", 1)

    attempted, failed = report["attempted"], report["failed"]
    failures = list(report["failures"])
    # Golden gate: at the default seed and horizon the final-state digest
    # is pinned.
    golden = load_golden(args.golden).get(args.workload)
    if (golden and args.seed == golden["seed"]
            and int(report["horizon"]) == golden["horizon"]):
        attempted += 1
        if report["digest"] != golden["digest"]:
            failed += 1
            failures.append(f"digest {report['digest']} != golden "
                            f"{golden['digest']}")
    if proc.returncode != 0 and failed == 0:
        failed, attempted = 1, attempted + 1
        failures.append(f"lgg_perfbench exited {proc.returncode}")
    correct = failed == 0

    print_table(args, report, attempted, failed, failures)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": report["metrics"]}
    if args.record:  # every metric, ledger or not, for compare
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "digest": report["digest"],
                                **result}) + "\n")
    # The last line carries the ledger's metrics only; the table above
    # also shows the ones printed for information (step_p50_us,
    # step_p99_us).
    gated = ledger_metrics(args.trace)
    result["metrics"] = {k: v for k, v in report["metrics"].items()
                         if k in gated}
    print(json.dumps(result))
    return 0 if correct else 1


def print_table(args, report, attempted, failed, failures):
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} {mode} horizon={report['horizon']} "
          f"episodes={report['episodes']} engine={report['engine']} "
          f"cross-check={report['cross_engine']} digest={report['digest']} "
          f"workdir={report['workdir_fs']}")
    if "setups" in report:
        print(f"# setup_s: median of {report['setups']}")
    if "step_samples" in report:
        print(f"# step samples={report['step_samples']} "
              f"beyond p99={report['samples_beyond_p99']}")
    if "durable_layers_from" in report:
        print(f"# ckpt/obs/control figures from a {report['durable_layers_from']}"
              " (idle in this workload)")
    for name, m in report["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'failed_ops_ratio':<36} {failed / attempted:>16.6g} ratio "
              f"({failed}/{attempted})")
    if report.get("self_ns_per_step"):
        print("# self time per layer (ns/step): " + ", ".join(
            f"{k}={v:.0f}" for k, v in report["self_ns_per_step"].items()))
    for f in failures:
        print(f"# FAILED: {f}")


def main(argv):
    if argv and argv[0] in ("compare", "ab"):
        import compare
        return compare.main(argv)
    if argv and argv[0] == "selftest":
        import selftest
        return selftest.main(argv[1:])
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--horizon", type=int, default=0,
                   help="override the workload's horizon (self-tests)")
    p.add_argument("--golden", default=str(GOLDEN),
                   help="golden digests file (default perfbench/golden.json)")
    p.add_argument("--record", help="append the result, tagged, to this file")
    return run_workload(p.parse_args(argv))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main(sys.argv[1:]))
