"""Experiment harness: run specs, verification suites, accounting, sweeps.

Every entry point is deterministic given its arguments, including the Monte
Carlo verifications (explicit seeds); a verification report re-run with its
own embedded seeds reproduces its measured values exactly.
"""

import csv
import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import rng
from .curvature import DiagHessian, fourth_moment_weighted, inv_sqrt
from .errors import ConfigError, check_range, check_type
from .fedsim import (SPEC_NAMES, ClientState, DirectionProvider, RoundConfig,
                     client_local_update, run_training)
from .ledger import (CommMeter, WireCostModel, format_bytes, full_vector_bytes,
                     meter_round, per_client_scalar_bytes)
from .tasks import LogisticTask, QuadraticTask
from .zo import multi_perturbation_delta, scale_direction


# --- run specs ----------------------------------------------------------------

_TASK_BUILDERS = (("quadratic", QuadraticTask.build), ("logistic", LogisticTask.build))
# run-spec name -> RoundConfig attribute; cost_model is built from the bytes_per_* keys
_ROUND_FIELDS = {SPEC_NAMES.get(f.name, f.name): f.name for f in fields(RoundConfig)
                 if f.name != "cost_model"}
_REQUIRED_ROUND_FIELDS = [SPEC_NAMES.get(f.name, f.name) for f in fields(RoundConfig)
                          if f.default is MISSING and f.default_factory is MISSING]


def _check_section(spec: dict, annotations: dict, defaults: dict, section: str):
    """ConfigError naming a spec section's first unknown, mistyped or missing key."""
    for key, value in spec.items():
        if key not in annotations:
            raise ConfigError(f"unknown {section} field {key!r}", field=key)
        check_type(key, value, annotations[key])
    for key in annotations:
        if key not in spec and key not in defaults:
            raise ConfigError(f"{section} needs {key!r}", field=key)


def build_task(task_spec: dict):
    """The task of a spec's 'task' section, its keys checked before the call."""
    spec = dict(task_spec)
    kind = spec.pop("kind", None)
    # compared, not looked up: an unhashable kind must still be named
    builder = next((build for name, build in _TASK_BUILDERS if name == kind), None)
    if builder is None:
        raise ConfigError(f"unknown task kind {kind!r}", field="task.kind")
    _check_section(spec, builder.__annotations__, builder.__kwdefaults__, f"{kind} task")
    return builder(**spec)


def build_round_config(round_spec: dict) -> RoundConfig:
    spec = dict(round_spec)
    cost = WireCostModel(**{key: spec.pop(key) for key in WireCostModel.__annotations__
                            if key in spec})
    kwargs = {"cost_model": cost}
    for key, value in spec.items():
        if key not in _ROUND_FIELDS:
            raise ConfigError(f"unknown round field {key!r}", field=key)
        kwargs[_ROUND_FIELDS[key]] = value
    for key in _REQUIRED_ROUND_FIELDS:
        if key not in spec:
            raise ConfigError(f"round needs {key!r}", field=key)
    return RoundConfig(**kwargs)


def load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read spec {path!r}: {exc}", field="spec") from exc


def _build(spec):
    """(task, config) from a spec's 'task' and 'round' sections."""
    check_type("spec", spec, dict)
    _check_section(spec, {"task": dict, "round": dict, "dump_hessian": bool},
                   {"dump_hessian": False}, "spec")
    return build_task(spec["task"]), build_round_config(spec["round"])


def run_spec(spec: dict, output_dir=None):
    """Execute a declarative spec: build the task, run training, emit files."""
    task, config = _build(spec)
    result = run_training(config, task)
    if output_dir is not None:
        write_trace(result.trace, output_dir)
        if spec.get("dump_hessian"):
            path = os.path.join(output_dir, "hessian_diag.f64")
            result.server.hessian.diag.astype("<f8").tofile(path)
    return result


def write_trace(trace, output_dir):
    os.makedirs(output_dir, exist_ok=True)
    jsonl = os.path.join(output_dir, "trace.jsonl")
    with open(jsonl, "w") as fh:
        for rec in trace:
            fh.write(json.dumps(rec) + "\n")
    csv_path = os.path.join(output_dir, "summary.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(trace[0]))
        writer.writeheader()
        writer.writerows(trace)
    return jsonl, csv_path


# --- verification reports -------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    samples: int
    runtime_s: float
    detail: str = ""


@dataclass
class VerificationReport:
    seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, *args, **kwargs):
        self.checks.append(CheckResult(*args, **kwargs))

    def to_dict(self) -> dict:
        return {"seed": self.seed, "passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}

    def lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield (f"[{status}] {c.name}: measured={c.measured:.3e} "
                   f"tol={c.tolerance:.3e} n={c.samples} ({c.runtime_s:.2f}s)"
                   + (f" {c.detail}" if c.detail else ""))


def _uniform(seed: int, n: int, lo: float, hi: float) -> np.ndarray:
    u = (rng.raw_uint64(seed, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return lo + (hi - lo) * u


def _random_moment_pair(seed: int, dim: int):
    """(Lambda, W) with every closed-form target entry bounded away from zero,
    so the 3% entrywise relative gate measures Monte Carlo noise, not division
    by a vanishing target. W is drawn directly as a symmetric matrix (mirrored
    upper triangle) with |W_ij| in [0.5, 1.5] and a positive diagonal, which
    keeps both the off-diagonal targets and Tr(W Lam) away from zero."""
    lam = _uniform(rng.mix(seed, 1), dim, 0.8, 1.6)
    mags = _uniform(rng.mix(seed, 2), dim * dim, 1.0, 1.5).reshape(dim, dim)
    signs = np.where(rng.raw_uint64(rng.mix(seed, 3), dim * dim) % np.uint64(2) == 0,
                     1.0, -1.0).reshape(dim, dim)
    W = np.triu(mags * signs)
    W = W + np.triu(W, 1).T
    np.fill_diagonal(W, np.abs(np.diagonal(W)))
    return lam, W


def _empirical_fourth_moment(lam: np.ndarray, W: np.ndarray, n: int, seed: int) -> np.ndarray:
    dim = lam.shape[0]
    Z = rng.gaussian_vector(seed, n * dim).reshape(n, dim) * np.sqrt(lam)
    q = np.einsum("ni,ij,nj->n", Z, W, Z)
    return (Z * q[:, None]).T @ Z / n


_MOMENT_PAIRS = 5  # random (Lambda, W) pairs of check (a)


def verify_lemmas(dim: int = 6, samples: int = 10**6, seed: int = 0) -> VerificationReport:
    """Monte Carlo checks of the identities the analysis rests on.

    (a) fourth moment, weighted: E[z z^T W z z^T] = Tr(W L) L + 2 L W L for
        z ~ N(0, L), diagonal L, symmetric W -- entrywise 3% at 1e6 draws;
    (b) the standard-normal specialization Tr(W) I + 2W;
    (c) Hessian-informed unbiasedness of the simulator's estimator,
        client_local_update: on a quadratic its mean step equals H^-1 grad f
        exactly (odd moments vanish), to three standard errors per coordinate.
    """
    check_range("dim", dim, 1 <= dim <= 6, "in [1, 6] for the fourth-moment checks")
    check_range("samples", samples, samples >= 1, ">= 1")
    report = VerificationReport(seed=seed)
    # 3% absorbs the Monte Carlo noise of fourth moments at 1e6 draws; the
    # gate scales as 1/sqrt(N) when run with a different budget
    tol = 0.03 * float(np.sqrt(10**6 / samples))

    for i in range(_MOMENT_PAIRS):
        t0 = time.perf_counter()
        lam, W = _random_moment_pair(rng.mix(seed, 10, i), dim)
        target = fourth_moment_weighted(lam, W)
        est = _empirical_fourth_moment(lam, W, samples, rng.mix(seed, 11, i))
        rel = float(np.max(np.abs(est - target) / np.abs(target)))
        report.add(f"fourth-moment weighted pair {i}", rel <= tol, rel, tol,
                   samples, time.perf_counter() - t0)

    t0 = time.perf_counter()
    lam = np.ones(dim)
    _, W = _random_moment_pair(rng.mix(seed, 12), dim)
    target = float(np.trace(W)) * np.eye(dim) + 2.0 * W
    est = _empirical_fourth_moment(lam, W, samples, rng.mix(seed, 13))
    rel = float(np.max(np.abs(est - target) / np.abs(target)))
    report.add("fourth-moment standard normal", rel <= tol, rel, tol,
               samples, time.perf_counter() - t0)

    # Pinned hand cases: identity pair gives (d + 2) I; diag cases by arithmetic.
    t0 = time.perf_counter()
    hand = fourth_moment_weighted(np.ones(3), np.eye(3))
    ok_hand = np.allclose(hand, 5.0 * np.eye(3), rtol=0, atol=0)
    hand2 = fourth_moment_weighted(np.array([1.0, 4.0]), np.diag([2.0, 0.0]))
    ok_hand = ok_hand and np.allclose(hand2, np.diag([6.0, 8.0]), rtol=0, atol=0)
    report.add("fourth-moment closed-form hand cases", bool(ok_hand),
               0.0, 0.0, 0, time.perf_counter() - t0)

    # (c) the library's estimator: one client, one step of n perturbations
    t0 = time.perf_counter()
    d, n, mu = 10, 10**5, 1e-5
    H = DiagHessian(diag=np.exp(rng.gaussian_vector(rng.mix(seed, 15), d)))
    a = np.exp(rng.gaussian_vector(rng.mix(seed, 16), d))  # quadratic curvatures
    x = rng.gaussian_vector(rng.mix(seed, 17), d)
    task = QuadraticTask(spectrum=a, centers=np.zeros((1, d)), x0=x)
    config = RoundConfig(num_clients=1, sampled_per_round=1, rounds=1, eta=1.0,
                         perturbations=n, mu=mu, root_seed=rng.mix(seed, 14))
    provider = DirectionProvider(config.schedule(), d)
    scalars = client_local_update(ClientState(id=0, model=x, hessian=H), 0, config,
                                  task, provider)[0]
    zs = scale_direction(provider.block(0, (1, n))[0], inv_sqrt(H))
    target = a * x / H.diag  # the preconditioned gradient
    se = (scalars[:, None] * zs).std(axis=0) / np.sqrt(n)
    mean = multi_perturbation_delta(scalars, zs)
    dev = float(np.max(np.abs(mean - target) / (3.0 * se)))
    report.add("forward-difference unbiasedness (Hessian-informed quadratic)", dev <= 1.0,
               dev, 1.0, n, time.perf_counter() - t0, detail="in units of 3 standard errors")
    return report


# --- scalar-vs-vector equivalence ----------------------------------------------


def fuzz_config(seed: int, index: int):
    """One fuzzed (config, task) pair; quadratics mostly, logistic every 4th."""
    s = rng.mix(seed, 20, index)

    def draw(lo, hi, salt):
        return lo + int(rng.raw_uint64(rng.mix(s, salt), 1)[0] % np.uint64(hi - lo + 1))

    dim = draw(4, 128, 1)
    M = draw(2, 16, 2)
    m = draw(1, M, 3)
    tau = draw(1, 4, 4)
    P = draw(1, 8, 5)
    R = draw(3, 30, 6)
    config = RoundConfig(
        num_clients=M, sampled_per_round=m, rounds=R, eta=0.01, tau=tau,
        perturbations=P, mu=1e-4, nu=0.1, root_seed=rng.mix(s, 7),
        sampling_seed=rng.mix(s, 8),
    )
    if index % 4 == 3:
        task = LogisticTask.build(dim=min(dim, 48), num_clients=M,
                                  seed=rng.mix(s, 9), n_samples=240, batch_size=16)
    else:
        task = QuadraticTask.build(dim=dim, num_clients=M, seed=rng.mix(s, 9),
                                   spectrum_variance=1.0, offset_scale=0.1,
                                   x0_scale=0.5)
    return config, task


_ORACLE_TOLERANCE = {"direct": 0.0, "natural": 1e-9}


def verify_equivalence(fuzz_count: int = 20, seed: int = 0,
                       transport: str = "direct") -> VerificationReport:
    """Scalar-only protocol vs a full-vector oracle on fuzzed configurations.

    Against the "direct" oracle the per-round server models must agree
    bitwise: the scalar-protocol machinery (ledger, rebuild, reset) is the
    only thing that can break the equality. Against the "natural" oracle,
    which averages delta vectors, agreement is to 1e-9.
    """
    check_range("oracle transport", transport, transport in _ORACLE_TOLERANCE,
                "direct or natural", "transport")
    # all() over no checks is true: an empty report must not pass
    check_range("fuzz count", fuzz_count, fuzz_count >= 1, ">= 1", "fuzz")
    tol = _ORACLE_TOLERANCE[transport]
    report = VerificationReport(seed=seed)
    for i in range(fuzz_count):
        t0 = time.perf_counter()
        config, task = fuzz_config(seed, i)
        scalar = run_training(config, task, keep_models=True)
        oracle = run_training(config, task, keep_models=True, transport=transport)
        gaps = [float(np.max(np.abs(a - b)))
                for a, b in zip(scalar.models, oracle.models)]
        worst = max(gaps)
        divergent = next((r for r, g in enumerate(gaps) if g > 0), None)
        name = (f"scalar==vector config {i} (d={task.dim}, M={config.num_clients}, "
                f"m={config.sampled_per_round}, tau={config.tau}, "
                f"P={config.perturbations}, R={config.rounds})")
        report.add(name, worst <= tol, worst, tol, config.rounds,
                   time.perf_counter() - t0,
                   detail="" if divergent is None else f"first divergent round {divergent}")
    return report


# --- communication accounting ---------------------------------------------------


def account(rounds: int, m: int = 2, tau: int = 1, perturbations: int = 5,
            dim: int = None, cost: WireCostModel = WireCostModel()) -> dict:
    """Byte accounting for one run length: metered scalar protocol vs the
    full-vector formula, per client. dim=None omits the full-vector rows."""
    for name, value in (("rounds", rounds), ("m", m), ("tau", tau), ("P", perturbations)):
        check_range(name, value, value >= 1, ">= 1")
    if dim is not None:
        check_range("dim", dim, dim >= 1, ">= 1")
    meter = CommMeter(cost=cost)
    for r in range(rounds):
        # Always-sampled steady state: each client replays exactly one round,
        # except at round 0 where there is no history yet.
        missed = [0] * m if r == 0 else [1] * m
        meter = meter_round(meter, m, tau, perturbations, missed)
    total = meter.uplink_bytes + meter.downlink_bytes
    out = {
        "rounds": rounds, "m": m, "tau": tau, "perturbations": perturbations,
        "metered_uplink_bytes": meter.uplink_bytes,
        "metered_downlink_bytes": meter.downlink_bytes,
        "metered_total_bytes": total,
        "per_client_bytes": total / m,
        "per_client_formula_bytes": per_client_scalar_bytes(rounds, tau, perturbations, cost),
    }
    if dim is not None:
        vec_one = full_vector_bytes(dim)
        out["full_vector_bytes_per_direction"] = vec_one
        out["full_vector_bytes_per_round_per_client"] = 2 * vec_one
        scalar_round = 2 * tau * perturbations * cost.bytes_per_scalar
        out["savings_ratio_single_direction"] = vec_one / scalar_round
        out["full_vector_total_per_client"] = 2 * vec_one * rounds
        out["savings_ratio_total"] = (2 * vec_one * rounds) / max(out["per_client_bytes"], 1)
    return out


def account_lines(row: dict):
    yield (f"scalar protocol, {row['rounds']} rounds (m={row['m']}, tau={row['tau']}, "
           f"P={row['perturbations']}):")
    yield f"  metered uplink   {format_bytes(row['metered_uplink_bytes'])}"
    yield f"  metered downlink {format_bytes(row['metered_downlink_bytes'])}"
    yield f"  per client       {format_bytes(int(row['per_client_bytes']))}"
    if "full_vector_bytes_per_direction" in row:
        yield (f"full-vector baseline: {format_bytes(row['full_vector_bytes_per_direction'])} "
               f"per direction per round per client")
        yield (f"  savings ratio (one full-vector direction vs one scalar round): "
               f"{row['savings_ratio_single_direction']:.3e}")
        yield (f"  savings ratio over {row['rounds']} rounds: "
               f"{row['savings_ratio_total']:.3e}")


# --- sweeps ---------------------------------------------------------------------


def rounds_to_threshold(losses, threshold: float):
    return next((r for r, loss in enumerate(losses) if loss <= threshold), None)


def sweep(spec: dict, nu_list=None, tau_list=None, p_list=None, eta_list=None,
          loss_factor: float = 10.0, max_runs: int = 64):
    """Cross-product ablation runs; one summary row per combination.

    rounds_to_threshold is measured against the initial loss divided by
    loss_factor; None means the budget R never reached it.
    """
    task, base = _build(spec)
    # None means "hold at the base value"; an explicitly empty list is an
    # empty grid and yields an empty table
    nu_list = [base.nu] if nu_list is None else list(nu_list)
    tau_list = [base.tau] if tau_list is None else list(tau_list)
    p_list = [base.perturbations] if p_list is None else list(p_list)
    eta_list = [base.eta] if eta_list is None else list(eta_list)
    combos = [(nu, tau, P, eta) for nu in nu_list for tau in tau_list
              for P in p_list for eta in eta_list]
    check_range("sweep grid", len(combos), len(combos) <= max_runs,
                f"at most the budget of {max_runs} runs", "grid")
    initial = task.global_loss(np.asarray(task.x0, dtype=np.float64))
    rows = []
    for nu, tau, P, eta in combos:
        config = replace(base, nu=nu, tau=tau, perturbations=P, eta=eta)
        result = run_training(config, task)
        losses = result.losses()
        rows.append({
            "nu": nu, "tau": tau, "P": P, "eta": eta,
            "algorithm": config.algorithm,
            "final_loss": float(losses[-1]),
            "best_loss": float(losses.min()),
            "rounds_to_threshold": rounds_to_threshold(losses, initial / loss_factor),
            "uplink_bytes": result.server.meter.uplink_bytes,
            "downlink_bytes": result.server.meter.downlink_bytes,
        })
    return rows


def write_sweep_csv(rows, path):
    fields = ["nu", "tau", "P", "eta", "algorithm", "final_loss", "best_loss",
              "rounds_to_threshold", "uplink_bytes", "downlink_bytes"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path
