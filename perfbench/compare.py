"""A/B comparison of two perf-ledger result sets.

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/run.py ab --parent DIR --change DIR [--pairs 10]
        [--workloads w1,w2] [--out DIR]

A result set is the JSONL file run.py --record appends to: one line per run,
tagged with workload, seed and trace mode.  `ab` produces two of them by
running the untraced benchmark in two checkouts in alternating pairs (pair i
runs the parent first when i is even, the change first when it is odd, both
with seed 100 + i and BENCHMARK.json's run_seconds), then compares them.  A
run that ends without a report is recorded as a correct=false line.

Runs are paired by seed.  A pair in which either run failed a check gives no
timings; it counts as run but won by neither side.  Per metric and workload,
compare prints each side's median and quartiles over the clean pairs, how
many pairs each side won, and a verdict: `win` or `loss` when one side wins
at least nine tenths of all pairs run (ties count for neither) and the
medians differ by more than the parent's own spread (its interquartile
distance); `within noise` otherwise.  A faster change that fails more runs
or checks than the parent gets `no win (fails more)` instead of `win`.  End-to-end metrics also get a bound
column: `within bound` when the change's median is no worse than the
parent's by more than the bound in BENCHMARK.json, `beyond bound` when it
is, and `unresolved` when the parent's spread is itself wider than the
bound and the change does not beat every parent run.  No signed
percentages are printed: a difference inside the spread is not a result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return metrics


AB_SEED_BASE = 100


def load_results(path):
    """{(workload, trace): {seed: run}}."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, lower_is_better, pairs_run):
    """9-of-10-pairs rule over seed-paired values; pairs that gave no values
    still count in pairs_run.  Returns (verdict, change wins, parent wins)."""
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    change_wins = sum(better(c, p) for p, c in zip(parent, change))
    parent_wins = sum(better(p, c) for p, c in zip(parent, change))
    if not parent:
        return "within noise", 0, 0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    apart = abs(c_med - p_med) > (p_q3 - p_q1)
    if apart and change_wins >= 0.9 * pairs_run:
        return "win", change_wins, parent_wins
    if apart and parent_wins >= 0.9 * pairs_run:
        return "loss", change_wins, parent_wins
    return "within noise", change_wins, parent_wins


def bound_status(parent, change, spec):
    """Is the change's median within the metric's regression bound?"""
    if "bound" not in spec:
        return ""
    lower = spec["better"] == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse = (c_med - p_med) if lower else (p_med - c_med)
    allowed = spec["bound"] * abs(p_med)
    beats_all = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if (p_q3 - p_q1) > allowed and not beats_all:
        return "unresolved"
    return "within bound" if worse <= allowed else "beyond bound"


def compare(parent_path, change_path, out=sys.stdout):
    spec = load_spec()
    parent_runs = load_results(parent_path)
    change_runs = load_results(change_path)
    print(f"{'workload':<20} {'metric':<34} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins c/p of n':<14} verdict",
          file=out)
    for key in sorted(parent_runs.keys() | change_runs.keys()):
        prs, crs = parent_runs.get(key, {}), change_runs.get(key, {})
        # A seed run on one side only is a pair that failed on the other.
        seeds = sorted(prs.keys() | crs.keys())
        missing = {"correct": False, "failed": 1, "metrics": {}}
        pairs = [(prs.get(s, missing), crs.get(s, missing)) for s in seeds]
        failed_runs = [sum(not r["correct"] for r in side) for side in zip(*pairs)]
        failed_ops = [sum(r["failed"] for r in side) for side in zip(*pairs)]
        fails_more = (failed_runs[1] > failed_runs[0]
                      or failed_ops[1] > failed_ops[0])
        clean = [(pr, cr) for pr, cr in pairs if pr["correct"] and cr["correct"]]
        names = {name for pr, cr in clean for name in pr["metrics"]}
        for name in sorted(names):
            both = [(pr, cr) for pr, cr in clean
                    if name in pr["metrics"] and name in cr["metrics"]]
            p = [pr["metrics"][name]["value"] for pr, _ in both]
            c = [cr["metrics"][name]["value"] for _, cr in both]
            # Metrics outside the ledger (step_p99_us) are times: lower wins.
            m = spec.get(name, {"better": "lower"})
            v, cw, pw = verdict(p, c, m["better"] == "lower", len(pairs))
            if v == "win" and fails_more:
                v = "no win (fails more)"
            pq, cq = quartiles(p), quartiles(c)
            bound = bound_status(p, c, m)
            print(f"{key[0]:<20} {name:<34} "
                  f"{f'{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]':<34} "
                  f"{f'{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]':<34} "
                  f"{f'{cw}/{pw} of {len(pairs)}':<14} {v}"
                  + (f"; {bound}" if bound else ""),
                  file=out)
        print(f"{key[0]:<20} {len(pairs)} pairs; failed runs parent "
              f"{failed_runs[0]}, change {failed_runs[1]}; failed checks "
              f"parent {failed_ops[0]}, change {failed_ops[1]}", file=out)


def run_ab(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {side: out / f"{side}.jsonl" for side in ("parent", "change")}
    for f in files.values():
        f.write_text("")
    dirs = {"parent": Path(args.parent).resolve(),
            "change": Path(args.change).resolve()}
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        seed = AB_SEED_BASE + i
        for workload in args.workloads.split(","):
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0", "--record", str(files[side])]
                recorded = len(files[side].read_text().splitlines())
                proc = subprocess.run(cmd, cwd=dirs[side], stdout=subprocess.PIPE,
                                      text=True)
                ok &= proc.returncode == 0
                if len(files[side].read_text().splitlines()) == recorded:
                    # Timed out or crashed before reporting: still a run.
                    with open(files[side], "a") as f:
                        f.write(json.dumps({
                            "workload": workload, "seed": seed, "trace": 0,
                            "digest": None, "correct": False, "attempted": 1,
                            "failed": 1, "metrics": {}}) + "\n")
                print(f"pair {i} {workload} {side}: exit {proc.returncode}",
                      flush=True)
    compare(files["parent"], files["change"])
    return 0 if ok else 1


def main(argv):
    if argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        a = p.parse_args(argv[1:])
        compare(a.parent, a.change)
        return 0
    p = argparse.ArgumentParser(prog="run.py ab")
    p.add_argument("--parent", required=True, help="checkout of the parent")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10)
    ledger = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p.add_argument("--workloads", help="comma-separated (default: the ledger's)",
                   default=",".join(w["name"] for w in ledger["workloads"]))
    p.add_argument("--out", default=".bench_build/ab")
    return run_ab(p.parse_args(argv[1:]))
