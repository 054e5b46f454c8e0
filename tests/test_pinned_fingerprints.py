"""Pin the protocol's numbers: federation 0 of every benchmark workload at the
default seed must reproduce the fingerprint pinned in bench/workloads.py
(SHA-256 of the final server model and the serialized ledger).

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


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_workload_reproduces_pinned_fingerprint(workload, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", "0", "--federations", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])["federations"][0]
    assert report["failures"] == []
    assert report["fingerprint"] == PINNED[workload]
