"""Workload definitions for the scalarfed benchmark.

A workload is a run spec template plus how many federations one benchmark
run trains. Every seed in a spec is derived from the workload seed, so the
same seed always yields the same specs; seed 0 reproduces the README spec
and the fingerprints pinned below.
"""

from dataclasses import dataclass

DEFAULT_SEED = 0

_QUADRATIC = {"kind": "quadratic", "spectrum_variance": 3.0,
              "offset_scale": 0.0002, "x0_scale": 0.01}
_ROUND = {"mu": 1e-5, "nu": 0.05}
_BASE_SEEDS = {"task": 212, "root_seed": 1234, "sampling_seed": 77}


@dataclass(frozen=True)
class Workload:
    name: str
    task: dict
    round: dict
    # Federations trained per benchmark run, each on its own derived seeds.
    # Workloads whose final loss spreads widely across seeds train many and
    # report the geometric mean, so that the run-level figure is steady.
    federations: int
    # Federations per child process; a few fresh processes per run average
    # out process-to-process timing differences.
    per_child: int
    # Set-up and replay timings per federation. Workloads that train few
    # federations per run time these short phases several times.
    repeats: int = 1

    def spec(self, seed: int, federation: int, rounds: int = None) -> dict:
        """The run spec of one federation, a pure function of its arguments."""
        offset = seed * self.federations + federation
        task = dict(self.task, seed=_BASE_SEEDS["task"] + offset)
        rnd = dict(self.round,
                   root_seed=_BASE_SEEDS["root_seed"] + offset,
                   sampling_seed=_BASE_SEEDS["sampling_seed"] + offset)
        if rounds is not None:
            rnd["R"] = rounds
        return {"task": task, "round": rnd}


WORKLOADS = {w.name: w for w in (
    # Per-round fixed costs spread over many layers: sampling, validation,
    # dataclass rebuilds, per-round metrics and small-vector numpy calls.
    Workload("readme-d200",
             dict(_QUADRATIC, dim=200, num_clients=8),
             dict(_ROUND, M=8, m=4, R=200, eta=1e-3, tau=1, P=5),
             federations=48, per_child=12),
    # Direction generation dominates; almost every direction is a cache miss
    # and the direction cache is most of the peak memory.
    Workload("large-d",
             dict(_QUADRATIC, dim=100_000, num_clients=8),
             dict(_ROUND, M=8, m=4, R=20, eta=1e-4, tau=1, P=5),
             federations=4, per_child=1, repeats=3),
    # Sampled clients are tens of rounds stale: rebuild replay, the
    # per-round global loss over 256 clients and cache-hit direction lookups.
    Workload("many-clients",
             dict(_QUADRATIC, dim=20_000, num_clients=256),
             dict(_ROUND, M=256, m=2, R=40, eta=1e-4, tau=1, P=5),
             federations=4, per_child=1, repeats=3),
    # The only stochastic-batch path and the only run with tau > 1.
    Workload("logistic-tau4",
             {"kind": "logistic", "dim": 48, "num_clients": 8, "batch_size": 32},
             dict(_ROUND, M=8, m=4, R=100, eta=0.05, tau=4, P=2),
             federations=16, per_child=4),
)}

# Fingerprint of federation 0 at DEFAULT_SEED (for readme-d200, the README
# spec itself): SHA-256 of the final server model bytes followed by the
# serialized ledger. The values hold with one BLAS thread, as run.py sets:
# on d=1e5 a multi-threaded BLAS dot product sums in another order, so the
# losses, and through them the model, differ in the last bits.
PINNED_FINGERPRINTS = {
    "readme-d200":
        "05156d340aaab8053bc7abd2dc5309fa599425ba8f49f03d043b400a21aefc93",
    "large-d":
        "8a73af06edee0698755cdf8da788b160049fa3074c0c46bde4c0f1eb752604b1",
    "many-clients":
        "9534b66be737a248925100874f5319c9c759c48cd74b8000d203638dc26c03be",
    "logistic-tau4":
        "afbb0edfac714b270f44ce3e8948affc33e00e1e394151022e3d0ce3101b9373",
}
