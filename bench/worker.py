"""One benchmark child process: trains the given federations of one workload.

For each federation it times set-up, `harness.run_spec` (the body of
`scalarfed run spec -o dir`) and an offline replay of the serialized ledger
by a fresh client with a cold direction cache, then checks the outputs.
With --trace 1 it repeats each federation with spans recorded around the
library's public calls. The last line of stdout is a JSON report.

Started by run.py with BLAS/OpenMP pinned to one thread; not meant to be run
by hand.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from scalarfed import fedsim, harness, ledger  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _check(failures, ok, what):
    if not ok:
        failures.append(what)


def set_up(spec: dict):
    return harness.build_task(spec["task"]), harness.build_round_config(spec["round"])


def train_and_replay(spec: dict, out_dir: str, repeats: int) -> dict:
    """One federation: set-up, run, serialize, replay; timings and checks.

    Set-up and replay are timed `repeats` times; every replay starts from a
    fresh client and a cold direction cache.
    """
    perf = time.perf_counter
    setup_s = []
    for _ in range(repeats):
        t0 = perf()
        task, config = set_up(spec)
        setup_s.append(perf() - t0)

    t0 = perf()
    result = harness.run_spec(spec, out_dir)
    run_s = perf() - t0

    server = result.server
    blob = ledger.serialize(server.ledger, root_seed=config.root_seed)
    x0 = np.asarray(task.x0, dtype=np.float64) if hasattr(task, "x0") else np.zeros(task.dim)

    replay_s = []
    for _ in range(repeats):
        t0 = perf()
        restored = ledger.deserialize(blob)
        provider = fedsim.DirectionProvider(config.schedule(), task.dim)
        fresh = fedsim.ClientState(id=0, model=x0.copy(),
                                   hessian=config.initial_hessian(task.dim))
        replayed = fedsim.client_rebuild(fresh, ledger.fetch_since(restored, 0),
                                         config.eta, provider)
        replay_s.append(perf() - t0)

    rounds, per_step = config.rounds, config.tau * config.perturbations
    scalar_bytes = config.cost_model.bytes_per_scalar
    losses = result.losses()
    with open(os.path.join(out_dir, "trace.jsonl")) as fh:
        trace_lines = sum(1 for _ in fh)
    failures = []
    _check(failures, replayed.last_round == rounds, "replay stopped early")
    _check(failures, replayed.model.tobytes() == server.model.tobytes(),
           "replayed model differs from the server model")
    _check(failures, replayed.hessian.diag.tobytes() == server.hessian.diag.tobytes(),
           "replayed curvature differs from the server curvature")
    _check(failures, restored == server.ledger, "ledger changed through serialize/deserialize")
    _check(failures, bool(np.all(np.isfinite(losses))) and losses[-1] < losses[0],
           "loss did not fall over the run")
    _check(failures, server.meter.uplink_bytes == rounds * config.sampled_per_round
           * per_step * scalar_bytes, "uplink bytes differ from m*tau*P per round")
    _check(failures, server.meter.downlink_bytes == per_step * scalar_bytes
           * sum(server.ledger.last_participation.values()),
           "downlink bytes differ from the replayed rounds in the ledger")
    _check(failures, trace_lines == rounds, "trace.jsonl does not hold one line per round")

    digest = hashlib.sha256(server.model.astype("<f8").tobytes() + blob).hexdigest()
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "replay_s": replay_s,
        "rounds": rounds,
        "final_loss": float(losses[-1]),
        "wire_bytes_per_round":
            (server.meter.uplink_bytes + server.meter.downlink_bytes) / rounds,
        "fingerprint": digest,
        "failures": failures,
    }


def _write_spans(fh, federation, tracer):
    for i, (name, start, end, parent) in enumerate(tracer.spans()):
        fh.write(f"{federation}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--federations", required=True, help="comma-separated indices")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--out", required=True, help="directory for run outputs")
    parser.add_argument("--spans", default=None, help="file for recorded spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(args.out, args.workload)
    indices = [int(v) for v in args.federations.split(",")]
    reports = []
    with contextlib.ExitStack() as stack:
        spans = stack.enter_context(open(args.spans, "w")) if args.spans else None
        if spans:
            spans.write("federation\tspan\tname\tstart\tend\tparent\n")
        for index in indices:
            spec = workload.spec(args.seed, index, rounds=args.rounds)
            report = train_and_replay(spec, out_dir, workload.repeats)
            report["index"] = index
            if args.trace:
                with Tracer() as tracer:
                    traced = train_and_replay(spec, out_dir, repeats=1)
                if traced["fingerprint"] != report["fingerprint"]:
                    traced["failures"].append("traced run changed the fingerprint")
                report["traced"] = {"run_s": traced["run_s"], "failures": traced["failures"],
                                    "layers": tracer.layer_metrics()}
                if spans:
                    _write_spans(spans, index, tracer)
            reports.append(report)

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mib": peak, "federations": reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
