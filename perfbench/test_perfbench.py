#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload of BENCHMARK.json at a tiny scale on a non-default
seed, untraced and traced, and checks that
  * the last line of output is the result object with the contract's keys;
  * every end-to-end metric (untraced) or per-layer metric (traced) named
    in BENCHMARK.json is printed, both as a "metric <name>" line and in
    the result object, with the unit BENCHMARK.json gives it;
  * no output failed validation (fail_frac is 0).

Usage, from the root of the repository: python3 perfbench/test_perfbench.py
Exits 0 when every check passes.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "7"


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        return None, [f"exit code {out.returncode}: {out.stderr[-2000:]}"]
    return out.stdout, []


def check(stdout, wanted):
    errors = []
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line of output is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if (result["attempted"] < 1 or result["failed"] != 0
            or not result["correct"]):
        errors.append(f"validation: attempted {result['attempted']}, "
                      f"failed {result['failed']}")
    if not re.search(r"^fail_frac 0\.0+ ", stdout, re.M):
        errors.append("fail_frac is not 0")
    printed = set(re.findall(r"^metric (\S+)", stdout, re.M))
    for m in wanted:
        if m["name"] not in printed:
            errors.append(f"{m['name']} not printed")
        got = result["metrics"].get(m["name"])
        if got is None:
            errors.append(f"{m['name']} missing from the result object")
        elif got["unit"] != m["unit"]:
            errors.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"undeclared metrics {sorted(extra)}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            stdout, errors = run(workload, trace)
            if stdout is not None:
                errors = check(stdout, spec[key])
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
