"""Self-tests of the perf ledger (python3 perfbench/run.py selftest).

1. A tiny-horizon run of every workload, untraced and traced, prints every
   end-to-end and per-layer metric named in BENCHMARK.json, with its unit,
   plus failed_ops_ratio, step_p50_us and step_p99_us in the table, and
   reports correct=true.
2. The traced and untraced runs reach the same final-state digest.
3. A planted wrong golden digest makes the command fail; the right one
   passes.

Exit code 0 when every test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "selftest"
TINY_HORIZON = {"sparse_1k": 600, "relay_grid_65k": 20,
                "durable_observed_1k": 1000}


def run(workload, trace, record, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--horizon", str(TINY_HORIZON[workload]), "--record", str(record),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def main(argv):
    del argv
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in TINY_HORIZON:
        record = WORK / f"{workload}.jsonl"
        record.write_text("")
        digests = {}
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run(workload, trace, record)
            result = json.loads(out.strip().splitlines()[-1])
            expect(code == 0 and result["correct"],
                   f"{workload} trace={trace} runs clean")
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want,
                   f"{workload} trace={trace} prints every metric with its unit")
            if trace == 0:  # printed in the table, outside the ledger
                info = ("failed_ops_ratio", "step_p50_us", "step_p99_us")
                expect(all(name in out for name in info),
                       f"{workload} prints {', '.join(info)}")
            digests[trace] = json.loads(record.read_text().splitlines()[-1])["digest"]
        expect(digests[0] == digests[1],
               f"{workload} traced digest {digests[1]} == untraced {digests[0]}")

        golden = WORK / f"{workload}.golden.json"
        for digest, should_pass in (("0" * 16, False), (digests[0], True)):
            golden.write_text(json.dumps({workload: {
                "seed": 1, "horizon": TINY_HORIZON[workload], "digest": digest}}))
            code, out = run(workload, 0, WORK / "golden.jsonl",
                            ("--golden", str(golden)))
            result = json.loads(out.strip().splitlines()[-1])
            passed = code == 0 and result["correct"]
            expect(passed == should_pass,
                   f"{workload} {'right' if should_pass else 'planted wrong'} "
                   f"golden digest {'passes' if should_pass else 'fails'}")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0
