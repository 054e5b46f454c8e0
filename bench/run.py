"""scalarfed benchmark: end-to-end and per-layer metrics for fixed workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload readme-d200 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each workload trains a fixed set of federations whose seeds derive from
--seed, each in a child process that runs only this workload (BLAS/OpenMP
pinned to one thread; children run one at a time). When every federation
has run once, further child processes repeat them until --seconds have
passed, adding timing samples; a repeat must reproduce its fingerprint.

--trace 0 reports the end-to-end metrics: medians over all samples of
set-up time, run time per round and replay time per round, the median peak
RSS of the children, and the final loss and wire bytes per round, which are
exact functions of the seed. --trace 1 runs every federation a second time
with spans recorded around the library's public calls and reports
per-layer metrics (medians over the traced federations) and the tracing
overhead.

Every federation's replayed model and curvature must equal the server's
bitwise, and at the default seed federation 0's fingerprint must equal the
pinned one; a mismatch is a failed operation. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from metrics import END_TO_END, LAYER_METRICS, TRACE_OVERHEAD  # noqa: E402
from workloads import DEFAULT_SEED, PINNED_FINGERPRINTS, WORKLOADS  # noqa: E402

SMOKE_ROUNDS = 3
CHILD_TIMEOUT_S = 150
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    return env


def run_child(workload, seed, federations, trace, rounds, out_dir, spans):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--federations", ",".join(map(str, federations)),
           "--trace", str(trace), "--out", out_dir]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload.name} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, smoke):
    """Run child processes for one workload; return (reports, peaks)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
    if smoke:
        indices, rounds = [0], SMOKE_ROUNDS
    else:
        # A traced run needs only enough federations to fill its time.
        count = workload.per_child if trace else workload.federations
        indices, rounds = list(range(count)), None
    chunks = [indices[i:i + workload.per_child]
              for i in range(0, len(indices), workload.per_child)]
    deadline = time.monotonic() + seconds
    reports, peaks = [], []
    n = 0
    last_took = 0.0
    while n < len(chunks) or (not smoke and time.monotonic() + last_took < deadline):
        chunk = chunks[n % len(chunks)]
        spans = os.path.join(out_dir, "spans", f"{workload.name}-seed{seed}-child{n}.tsv") \
            if trace else None
        started = time.monotonic()
        child = run_child(workload, seed, chunk, trace, rounds, out_dir, spans)
        last_took = time.monotonic() - started
        reports.extend(child["federations"])
        peaks.append(child["peak_rss_mib"])
        n += 1
    return reports, peaks


def _geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def summarize(workload, seed, reports, peaks, trace, smoke):
    """Correctness counts and the metrics of one workload run."""
    first = {}  # federation index -> its first report
    failed = 0
    for rep in reports:
        fp = first.setdefault(rep["index"], rep)["fingerprint"]
        bad = list(rep["failures"])
        if rep["fingerprint"] != fp:
            bad.append("a repeat changed the fingerprint")
        if trace:
            bad += rep["traced"]["failures"]
        if bad:
            failed += 1
            print(f"FAIL {workload.name} federation {rep['index']}: {'; '.join(bad)}",
                  file=sys.stderr)
    attempted = len(reports)
    fingerprint = first[0]["fingerprint"]
    pinned = PINNED_FINGERPRINTS[workload.name]
    if seed == DEFAULT_SEED and not smoke:
        attempted += 1
        if fingerprint != pinned:
            failed += 1
            print(f"FAIL {workload.name}: fingerprint {fingerprint} != pinned {pinned}",
                  file=sys.stderr)
    print(f"{workload.name}: fingerprint {fingerprint} (federation 0, seed {seed})")

    if trace:
        layers = [rep["traced"]["layers"] for rep in reports]
        metrics = {name: (statistics.median(layer[name] for layer in layers), unit)
                   for name, unit in LAYER_METRICS.items()}
        untraced = statistics.median(1e3 * r["run_s"] / r["rounds"] for r in reports)
        traced = statistics.median(1e3 * r["traced"]["run_s"] / r["rounds"] for r in reports)
        overhead = {"trace.round_ms.untraced": untraced, "trace.round_ms.traced": traced,
                    "trace.overhead_ratio": traced / untraced}
        metrics.update({k: (v, TRACE_OVERHEAD[k]) for k, v in overhead.items()})
    else:
        feds = first.values()
        metrics = {
            "setup_s": statistics.median(s for r in reports for s in r["setup_s"]),
            "round_ms": statistics.median(1e3 * r["run_s"] / r["rounds"] for r in reports),
            "replay_round_ms":
                statistics.median(1e3 * s / r["rounds"] for r in reports for s in r["replay_s"]),
            "peak_rss_mib": statistics.median(peaks),
            "final_loss": _geomean(r["final_loss"] for r in feds),
            "wire_bytes_per_round": statistics.fmean(r["wire_bytes_per_round"] for r in feds),
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    print(f"{workload.name}: {attempted} operations attempted, {failed} failed, "
          f"{len(reports)} federation runs in {len(peaks)} child processes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    return attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _source_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "scalarfed", "__init__.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scalarfed benchmark", epilog="See the module docstring for details.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"one federation of {SMOKE_ROUNDS} rounds per workload, "
                             "for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not _source_present():
        print("error: src/scalarfed not found; run from the root of a scalarfed checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        try:
            reports, peaks = measure(workload, args.seed, args.seconds, args.trace, args.smoke)
        except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        a, f, metrics = summarize(workload, args.seed, reports, peaks, args.trace, args.smoke)
        attempted, failed = attempted + a, failed + f
        results[name] = metrics
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": results[names[0]] if len(names) == 1 else results}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
