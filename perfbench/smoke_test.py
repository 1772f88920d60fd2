#!/usr/bin/env python3
"""Smoke test of the GeoProof system benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at tiny size (--tiny), plain and traced, through
perfbench/run.py from the checkout root, and asserts that

  * the last stdout line has exactly the keys correct/attempted/failed/metrics,
    with every check passed (correct, failed == 0, attempted >= 1);
  * every end-to-end metric of BENCHMARK.json is emitted by a plain run and
    every per-layer metric by a traced run, each with its declared unit,
    and the host speed the time-based metrics are scaled by is measured;
  * the same seed gives identical audit_sweep and track_sweep digests, and
    another seed gives different ones.

Exits 0 when all of that holds. Tiny runs build the same binaries as real
ones, so the first call may spend a few minutes compiling.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit_sweep", "track_sweep", "fleet_loopback")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                            timeout=900)
    assert result.returncode == 0, (
        f"{' '.join(cmd)} exited {result.returncode}:\n{result.stderr[-3000:]}")
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(label, info, res, wanted):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, (
        f"{label}: result keys {sorted(res)}")
    assert res["correct"] is True, f"{label}: not correct: {info['failures']}"
    assert res["failed"] == 0, f"{label}: {res['failed']} failed: {info['failures']}"
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, label
    for m in wanted:
        got = res["metrics"].get(m["name"])
        assert got is not None, f"{label}: metric {m['name']} missing"
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
    assert info["valid"], f"{label}: unoptimised build: {info['stamp']}"
    assert info["host_speed"] > 0, f"{label}: host speed {info['host_speed']}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    names = [w["name"] for w in contract["workloads"]]
    assert sorted(names) == sorted(WORKLOADS), names

    digests = {}
    for workload in WORKLOADS:
        for trace, wanted in ((0, contract["end_to_end"]),
                              (1, contract["per_layer"])):
            label = f"{workload} trace={trace}"
            info, res = run(workload, 1, trace)
            check_result(label, info, res, wanted)
            print(f"ok  {label}: attempted {res['attempted']}", flush=True)
            if trace == 0 and workload == "audit_sweep":
                digests[1] = info["digests"]

    again, _ = run("audit_sweep", 1, 0)
    other, _ = run("audit_sweep", 2, 0)
    for key in ("audit_sweep", "track_sweep"):
        assert digests[1][key] == again["digests"][key], (
            f"{key} digest differs between two runs of seed 1")
        assert digests[1][key] != other["digests"][key], (
            f"{key} digest equal for seeds 1 and 2")
    print(f"ok  determinism: {digests[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
