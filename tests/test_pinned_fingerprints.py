"""Pin the protocol's numbers: federation 0 of every benchmark workload at the
default seed must reproduce the fingerprint pinned in bench/workloads.py
(SHA-256 of the final server model and the serialized ledger), and a worker
that trains several federations in one process must pass every benchmark
check in any order.

Runs the benchmark's own worker in a subprocess with one BLAS thread, the
setting the pins hold under.
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


def _worker(workload, out, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", "0", "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])["federations"]


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_workload_reproduces_pinned_fingerprint(workload, tmp_path):
    report = _worker(workload, tmp_path, "--federations", "0")[0]
    assert report["failures"] == []
    assert report["fingerprint"] == PINNED[workload]


@pytest.mark.parametrize("workload", ["readme-d200", "logistic-tau4"])
def test_federations_in_one_process_are_independent_of_order(workload, tmp_path):
    # several federations share one process, its generator and the tracer's
    # patches: no state may leak between them, and every trace target must exist
    runs = [_worker(workload, tmp_path, "--rounds", "5", "--trace", "1",
                    "--federations", order) for order in ("0,1,2", "2,1,0")]
    for reports in runs:
        for report in reports:
            assert report["failures"] == []
            assert report["traced"]["failures"] == []
    forward, backward = ({r["index"]: r["fingerprint"] for r in reports} for reports in runs)
    assert forward == backward and len(forward) == 3
