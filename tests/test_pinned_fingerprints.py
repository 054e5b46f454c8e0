"""Pin the protocol's numbers: federation 0 of every benchmark workload at the
default seed must reproduce the fingerprint pinned in bench/workloads.py
(SHA-256 of the final server model and the serialized ledger), and a worker
that trains several federations in one process must pass every benchmark
check in any order.

Runs the benchmark's own worker in a subprocess with one BLAS thread, the
setting the pins hold under. Directions are drawn on as many threads as the
process has CPUs, so the workloads whose blocks span several chunks also run
restricted to one CPU, where every block is drawn in the calling thread.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _pinned():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PINNED_FINGERPRINTS


PINNED = _pinned()


def _worker(workload, out, *args, preexec_fn=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", "0", "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=preexec_fn,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])["federations"]


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_workload_reproduces_pinned_fingerprint(workload, tmp_path):
    report = _worker(workload, tmp_path, "--federations", "0")[0]
    assert report["failures"] == []
    assert report["fingerprint"] == PINNED[workload]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("workload", ["large-d", "many-clients"])
def test_one_cpu_reproduces_pinned_fingerprint(workload, tmp_path):
    cpu = min(os.sched_getaffinity(0))
    report = _worker(workload, tmp_path, "--federations", "0",
                     preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))[0]
    assert report["failures"] == []
    assert report["fingerprint"] == PINNED[workload]


# rounds per traced run. large-d draws its directions on the thread pool; at
# 2 rounds its federation 1 fails the worker's "loss falls" check, at 3 none do
TRACED_ROUNDS = {"readme-d200": "5", "logistic-tau4": "5", "large-d": "3"}


@pytest.mark.parametrize("workload", sorted(TRACED_ROUNDS))
def test_federations_in_one_process_are_independent_of_order(workload, tmp_path):
    # several federations share one process, its generators, its thread pool
    # and the tracer's patches: no state may leak between them, and every
    # trace target must exist
    runs = [_worker(workload, tmp_path, "--rounds", TRACED_ROUNDS[workload], "--trace", "1",
                    "--federations", order) for order in ("0,1,2", "2,1,0")]
    for reports in runs:
        for report in reports:
            assert report["failures"] == []
            assert report["traced"]["failures"] == []
    forward, backward = ({r["index"]: r["fingerprint"] for r in reports} for reports in runs)
    assert forward == backward and len(forward) == 3


def test_benchmark_smoke_run_completes():
    # the benchmark's own command, as BENCHMARK.json declares it, at smoke size
    root = os.path.dirname(BENCH)
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload", "all",
                           "--smoke"], cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
