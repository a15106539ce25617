#!/usr/bin/env python3
"""Self-test of the benchmark at smoke sizes.

    python3 perfbench/selftest.py

Builds the driver like run.py, then runs each workload once per pass with
--tiny and checks that:
  * every metric BENCHMARK.json names is emitted with its unit, nonzero for
    end-to-end metrics, and no failed operations are reported;
  * a seeded wrong clustering and a seeded wrong read are each counted as
    failed operations (correct == false).
Exits 0 when every check holds.
"""
import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the bytecode switch)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def drive(binary, workload, trace, *extra):
    cmd = [str(binary), "--workload", workload, "--seed", "7", "--seconds",
           "2", "--trace", str(trace), "--tiny", *extra]
    if trace:
        cmd += ["--trace-out", str(run.build_dir() / "selftest-trace.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def main() -> int:
    binary = run.build()
    problems = []
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = drive(binary, name, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {got} != {want}")
            if key == "end_to_end":
                zero = [k for k, v in r["metrics"].items() if not v["value"]]
                if zero:
                    problems.append(f"{name}: zero-valued metrics {zero}")
            if r["failed"] or not r["correct"] or r["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {r['failed']} failed "
                                f"of {r['attempted']}")
        for fault in ("wrong-cluster", "wrong-read"):
            for trace in (0, 1):
                r = drive(binary, name, trace, "--inject", fault)
                if r["correct"] or r["failed"] < 1:
                    problems.append(f"{name} trace={trace}: seeded {fault} "
                                    "was not counted as failed")
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
