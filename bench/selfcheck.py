"""Self-check of the benchmark: every workload at a few rounds.

    python3 bench/selfcheck.py

Runs every workload in smoke mode, untraced and traced, and asserts that the
correctness gate passes and that every metric BENCHMARK.json names is
printed with its unit. It also checks that the benchmark refuses to run,
without printing a result, when the library's source is missing. Exits
non-zero on the first failed assertion.
"""

import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from metrics import END_TO_END, LAYER_METRICS, TRACE_OVERHEAD  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {**LAYER_METRICS, **TRACE_OVERHEAD}


def check_smoke(trace: int):
    proc = _run(["--workload", "all", "--smoke", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(WORKLOADS)
    expected = {**LAYER_METRICS, **TRACE_OVERHEAD} if trace else END_TO_END
    printed = {tuple(line.split()[::2]) for line in proc.stdout.splitlines()
               if len(line.split()) == 3}
    for name in WORKLOADS:
        metrics = result["metrics"][name]
        assert set(metrics) == set(expected), (name, set(metrics) ^ set(expected))
        for metric, unit in expected.items():
            value = metrics[metric]["value"]
            assert metrics[metric]["unit"] == unit, (name, metric)
            assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric)
            assert (metric, unit) in printed, (name, metric)


def check_refuses_without_source():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(["--workload", "readme-d200", "--seed", "0", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_declared_metrics()
    check_smoke(trace=0)
    check_smoke(trace=1)
    check_refuses_without_source()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
