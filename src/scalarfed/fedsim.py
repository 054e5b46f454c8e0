"""Round orchestration for the scalar-only federated protocol.

One round: the server samples clients; each sampled client replays the
global scalar history it missed (Rebuild), bringing its model and curvature
replica bitwise equal to the server state; it then runs tau local steps along
shared seed-derived directions, collecting tau x P LOCAL gradient scalars,
and resets its model to the round-start value; the server averages the
scalar matrices, advances the model and the curvature EMA, and appends the
round log to the ledger.

One round loop, run_training, serves the protocol and its full-vector
oracles; they differ only in how round-start state reaches a client (see its
`transport`). Rebuild and aggregation advance state through one replay
kernel, in place on private copies, with the curvature validated once at the
kernel boundary. It and the local update share the helpers
(scale_direction, multi_perturbation_delta, ema_update) with fixed fold
orders: ascending client id, ascending local step, ascending perturbation.
That discipline is what makes replay, rebuild and the full-vector oracle
agree to the last bit, not merely to rounding error.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .curvature import (DEFAULT_BETA_LOWER, DEFAULT_BETA_UPPER, DEFAULT_EPSILON, DEFAULT_NU,
                        DiagHessian, diagnostics, ema_update, inv_sqrt)
from .errors import EstimatorFailureError, ProtocolOrderError, check_range, check_type
from .ledger import CommMeter, Ledger, RoundLog, WireCostModel, fetch_since, meter_round, record_round
from .rng import SeedSchedule, gaussian_vector, sample_without_replacement
from .zo import multi_perturbation_delta, scale_direction


# run-spec names of the fields whose spec name is not the attribute name
SPEC_NAMES = {"num_clients": "M", "sampled_per_round": "m", "rounds": "R",
              "perturbations": "P"}


@dataclass(frozen=True)
class RoundConfig:
    """Everything a run needs besides the task itself; valid once constructed."""

    num_clients: int
    sampled_per_round: int
    rounds: int
    eta: float
    tau: int = 1
    perturbations: int = 1
    mu: float = 1e-3
    nu: float = DEFAULT_NU
    epsilon: float = DEFAULT_EPSILON
    beta_lower: float = DEFAULT_BETA_LOWER
    beta_upper: float = DEFAULT_BETA_UPPER
    root_seed: int = 0
    sampling_seed: int = 1
    algorithm: str = "hiso"           # "hiso" | "decomfl" (forces nu = 0)
    quantize_wire: bool = False
    cost_model: WireCostModel = field(default_factory=WireCostModel)

    def __post_init__(self):
        # construction (`replace` too) checks every type first, as the range
        # checks compare values, then the ranges, then the seed grid
        for attr, annotation in RoundConfig.__annotations__.items():
            check_type(attr, getattr(self, attr), annotation, SPEC_NAMES.get(attr))
        # (attribute, holds, requirement), checked in this order
        checks = (
            ("num_clients", self.num_clients >= 1, ">= 1"),
            ("sampled_per_round", 1 <= self.sampled_per_round <= self.num_clients, "in [1, M]"),
            ("tau", self.tau >= 1, ">= 1"),
            ("perturbations", self.perturbations >= 1, ">= 1"),
            ("eta", 0 < self.eta < np.inf, "positive and finite"),
            ("mu", 0 < self.mu < np.inf, "positive and finite"),
            ("rounds", self.rounds >= 1, ">= 1"),
            ("algorithm", self.algorithm in ("hiso", "decomfl"), "hiso or decomfl"),
            ("nu", 0 <= self.nu <= 1, "in [0, 1]"),
            ("epsilon", self.epsilon > 0, "positive"),
            # the identity start needs 1 inside the clipping bounds
            ("beta_lower", 0 < self.beta_lower <= 1, "in (0, 1]"),
            ("beta_upper", self.beta_upper >= 1, ">= 1"),
            ("root_seed", 0 <= self.root_seed < 2**64, "in [0, 2**64)"),
            ("sampling_seed", 0 <= self.sampling_seed < 2**64, "in [0, 2**64)"),
        )
        for attr, holds, requirement in checks:
            check_range(attr, getattr(self, attr), holds, requirement, SPEC_NAMES.get(attr))
        self.schedule().validate_grid(self.rounds, self.tau, self.perturbations)

    def schedule(self) -> SeedSchedule:
        return SeedSchedule(root=self.root_seed)

    @property
    def effective_nu(self) -> float:
        # The baseline protocol is exactly this algorithm with the curvature
        # EMA switched off and an identity start.
        return 0.0 if self.algorithm == "decomfl" else self.nu

    def initial_hessian(self, dim: int) -> DiagHessian:
        return DiagHessian.identity(
            dim,
            nu=self.effective_nu,
            epsilon=self.epsilon,
            beta_lower=self.beta_lower,
            beta_upper=self.beta_upper,
        )


class DirectionProvider:
    """Seed -> raw Gaussian direction lookup shared by all parties.

    u(r, k, p) is a pure function of the schedule, so server, clients and
    oracles may share one provider without coupling. Given the run's plan
    `last_use` (last_use[j] is the round after which round j's directions are
    never read again), it caches round j from its first read until
    release(last_use[j]): every direction is generated once, and only rounds
    still due to be read stay in memory. Without a plan it caches nothing,
    which suits a reader that requests each direction once.
    """

    def __init__(self, schedule: SeedSchedule, dim: int, last_use=None):
        self.schedule = schedule
        self.dim = dim
        self._cache = {}  # round not yet released -> {(k, p): u}
        self._expiring = {}  # round t -> rounds whose last reader is round t
        for j, t in enumerate(last_use or ()):
            self._cache[j] = {}
            self._expiring.setdefault(t, []).append(j)

    def u(self, r: int, k: int, p: int) -> np.ndarray:
        live = self._cache.get(r, {})
        got = live.get((k, p))
        if got is None:
            got = live[(k, p)] = gaussian_vector(self.schedule.perturbation_seed(r, k, p),
                                                 self.dim)
        return got

    def release(self, t: int):
        """Drop every round whose last reader was round t."""
        for j in self._expiring.pop(t, ()):
            del self._cache[j]


@dataclass
class ClientState:
    """A client's replica: model, curvature estimate, last participation."""

    id: int
    model: np.ndarray
    hessian: DiagHessian
    last_round: int = 0


@dataclass
class ServerState:
    model: np.ndarray
    hessian: DiagHessian
    ledger: Ledger
    meter: CommMeter


def sample_clients(num_clients: int, m: int, r: int, sampling_seed: int) -> np.ndarray:
    """Uniform m-subset for round r, ascending ids, independent of the
    perturbation streams (changing M or m never perturbs directions)."""
    seed = SeedSchedule(root=sampling_seed).sampling_seed(r)
    return sample_without_replacement(seed, num_clients, m)


def _last_use(plan, transport: str):
    """Walk the plan once; return (last_use, last_read).

    last_use[j] is the last round whose work reads round j's directions:
    every round reads its own. Under "replay" each draw reads one replica,
    keyed by reader: the client's own once it has been sampled, otherwise
    None, the shared replica of every client not yet sampled. The draw
    replays every round since that replica last advanced and stores the
    result under both the reader and the client. last_read maps each key to
    the last round that reads or stores it, after which nothing reads it
    again. The rounds only advance, so the last write is the latest.
    """
    last_use = list(range(len(plan)))
    at = {None: 0}  # key -> the round its replica stands at
    if transport == "replay":
        for r, sampled in enumerate(plan):
            for cid in map(int, sampled):
                reader = cid if cid in at else None
                for j in range(at[reader], r):
                    last_use[j] = r
                at[reader] = at[cid] = r
    return last_use, at


def _quantize(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def _replay(model, hessian, logs, provider, eta):
    """Advance (model, H) through recorded rounds of global scalars, in place
    on private copies with scratch allocated once per call; the curvature is
    validated once, at the end. Directions use the round-start curvature; the
    EMA advances once per local step and shows only from the next round on."""
    model, diag = model.copy(), hessian.diag.copy()
    isH, delta, work = (np.empty_like(diag) for _ in range(3))
    zs = [np.empty_like(diag) for _ in range(logs[0].scalars.shape[1])] if logs else []
    for log in logs:
        inv_sqrt(diag, out=isH)
        for k, scalars in enumerate(log.scalars):
            for p, z in enumerate(zs):
                scale_direction(provider.u(log.round, k, p), isH, out=z)
            multi_perturbation_delta(scalars, zs, out=delta, work=work)
            model -= np.multiply(delta, eta, out=work)
            ema_update(hessian, delta, out=diag, work=work)
    return model, replace(hessian, diag=diag)


def client_rebuild(client: ClientState, missed, eta: float,
                   provider: DirectionProvider) -> ClientState:
    """Replay missed rounds' global scalars to resynchronize with the server.

    After the replay the client's model and curvature replica are bitwise
    equal to the server values for the current round: replay runs the exact
    arithmetic the server ran, on the exact values the ledger stored.
    """
    for expected, log in enumerate(missed, start=client.last_round):
        if log.round != expected:
            raise ProtocolOrderError(f"rebuild feed has round {log.round}, expected {expected}")
    model, hessian = _replay(client.model, client.hessian, missed, provider, eta)
    return replace(client, model=model, hessian=hessian,
                   last_round=client.last_round + len(missed))


def client_local_update(client: ClientState, r: int, config: RoundConfig,
                        task, provider: DirectionProvider) -> np.ndarray:
    """Run tau local steps and return the (tau, P) LOCAL scalar matrix.

    This is the one forward-difference estimator: every scalar is
    (f(x + mu*z) - f(x)) / mu, and at each step the P perturbed losses share
    one base evaluation and one batch. The trajectory uses the client's own
    scalars; the model is reset to its round-start value afterwards (the
    caller's ClientState is untouched), so all durable state flows
    exclusively through the global scalars.
    """
    x = client.model
    isH = inv_sqrt(client.hessian)
    mu = config.mu
    scalars = np.empty((config.tau, config.perturbations))
    for k in range(config.tau):
        batch = task.draw_batch(client.id, r, k, provider.schedule)
        base = task.client_loss(client.id, x, batch)
        if not np.isfinite(base):
            raise EstimatorFailureError(
                f"client {client.id} base loss diverged at round {r}, step {k}",
                which="base", coords=(r, k, None), client=client.id,
            )
        zs = []
        for p in range(config.perturbations):
            z = scale_direction(provider.u(r, k, p), isH)
            zs.append(z)
            perturbed = task.client_loss(client.id, x + mu * z, batch)
            if not np.isfinite(perturbed):
                raise EstimatorFailureError(
                    f"client {client.id} perturbed loss diverged at round {r}, "
                    f"step {k}, perturbation {p}",
                    which="perturbed", coords=(r, k, p), client=client.id,
                )
            scalars[k, p] = (perturbed - base) / mu
        if k + 1 < config.tau:  # the reset discards the model after the last step
            x = x - config.eta * multi_perturbation_delta(scalars[k], zs)
    return scalars


def aggregate_scalars(matrices, quantize: bool = False) -> np.ndarray:
    """Per-(step, perturbation) mean over clients, folded in ascending client
    order. Optionally models the 32-bit wire by rounding each uploaded matrix
    and the aggregated result."""
    acc = _quantize(matrices[0]) if quantize else matrices[0].copy()
    for mat in matrices[1:]:
        acc = acc + (_quantize(mat) if quantize else mat)
    acc = acc / len(matrices)
    return _quantize(acc) if quantize else acc


def server_aggregate(server: ServerState, matrices, r: int, config: RoundConfig,
                     provider: DirectionProvider):
    """Average the clients' scalar matrices and advance the global state."""
    if len(matrices) != config.sampled_per_round:
        raise ProtocolOrderError(
            f"expected {config.sampled_per_round} scalar matrices, got {len(matrices)}"
        )
    shape = (config.tau, config.perturbations)
    for mat in matrices:
        if mat.shape != shape:
            raise ProtocolOrderError(f"scalar matrix shape {mat.shape} != {shape}")
    global_scalars = aggregate_scalars(matrices, quantize=config.quantize_wire)
    log = RoundLog(round=r, scalars=global_scalars)
    model, hessian = _replay(server.model, server.hessian, [log], provider, config.eta)
    return log, model, hessian


def _average_deltas(server: ServerState, matrices, r: int, config: RoundConfig,
                    provider: DirectionProvider):
    """The natural model-averaging server step: mean of the clients' per-step
    delta vectors. Mathematically the replay of the mean scalars, but
    floating-point distinct."""
    model, hessian = server.model, server.hessian
    isH = inv_sqrt(hessian)
    for k in range(config.tau):
        zs = [scale_direction(provider.u(r, k, p), isH)
              for p in range(config.perturbations)]
        client_deltas = [multi_perturbation_delta(mat[k], zs) for mat in matrices]
        delta = client_deltas[0].copy()
        for extra in client_deltas[1:]:
            delta = delta + extra
        delta = delta / len(client_deltas)
        model = model - config.eta * delta
        hessian = ema_update(hessian, delta)
    return model, hessian


@dataclass
class RunResult:
    trace: list
    server: ServerState
    models: list = None  # per-round post-update server models, if requested

    def losses(self) -> np.ndarray:
        return np.array([rec["loss"] for rec in self.trace])


def _trace_record(r, loss, meter, prev_meter, hessian, evals, missed_counts, started, truth):
    rec = {
        "round": r,
        "loss": loss,
        "uplink_bytes": meter.uplink_bytes - prev_meter.uplink_bytes,
        "downlink_bytes": meter.downlink_bytes - prev_meter.downlink_bytes,
        "cum_uplink_bytes": meter.uplink_bytes,
        "cum_downlink_bytes": meter.downlink_bytes,
        "h_min": float(hessian.diag.min()),
        "h_median": float(np.median(hessian.diag)),
        "h_max": float(hessian.diag.max()),
        "client_fn_evals": evals,
        "max_stale_rounds": max(missed_counts),
        "mean_stale_rounds": sum(missed_counts) / len(missed_counts),
        "wall_time_s": time.perf_counter() - started,
    }
    if truth is not None:
        diag = diagnostics(hessian, *truth)
        rec["kappa"] = diag.effective_rank_kappa
        rec["zeta"] = diag.whitening_rank_zeta
        rec["spectral_term"] = diag.spectral_term
    return rec


def run_training(config: RoundConfig, task, keep_models: bool = False,
                 transport: str = "replay") -> RunResult:
    """Execute R rounds; `transport` is how round-start state reaches a client.

    "replay": the scalar-only protocol; each client keeps a replica and
    rebuilds it from the ledger rounds it missed. "direct": the full-vector
    oracle; each sampled client is handed the server's (model, curvature) by
    value and nothing else changes, so it must agree with "replay" bitwise in
    models, ledger, meter and trace (bar wall time); any difference convicts
    the ledger/rebuild/reset machinery. "natural": the direct hand-off, but the
    server averages the clients' delta vectors instead of replaying the mean
    scalars; it agrees only to rounding. Only "replay" keeps client replicas.

    The sampling plan is drawn up front; from it the direction cache knows
    each round's last reader and drops the round right after it, so no
    direction is generated twice and, unless some returning client stays away
    for most of the run, the cache does not grow with R. Replicas live in one
    table keyed by reader (see `_last_use`): None holds the shared replica of
    every client not yet sampled, which starts as the read-only (x0,
    identity) pair. Every draw rebuilds the reader's replica over the rounds
    it missed, freezes the result and stores it under the reader and the
    client; rebuild copies before it advances, so the frozen arrays are
    never written. A key is dropped after the last round that reads it, not
    during it, since two first draws in one round both read the shared
    replica. Missed rounds, and so the meter and staleness, count from the
    ledger's last participation. Where the task's optional
    `curvature_truth()` returns (Sigma, L), each record carries the
    diagnostics.
    """
    check_range("transport", transport, transport in ("replay", "direct", "natural"),
                "replay, direct or natural")
    check_range("task num_clients", task.num_clients, task.num_clients == config.num_clients,
                f"the config's M = {config.num_clients}", SPEC_NAMES["num_clients"])
    dim = task.dim
    truth = task.curvature_truth() if hasattr(task, "curvature_truth") else None
    plan = [sample_clients(config.num_clients, config.sampled_per_round, r,
                           config.sampling_seed) for r in range(config.rounds)]
    last_use, last_read = _last_use(plan, transport)
    provider = DirectionProvider(config.schedule(), dim, last_use)
    x0 = np.array(task.x0, dtype=np.float64)
    identity = config.initial_hessian(dim)
    for shared in (x0, identity.diag):
        shared.setflags(write=False)
    server = ServerState(
        model=x0,
        hessian=identity,
        ledger=Ledger(num_clients=config.num_clients),
        meter=CommMeter(cost=config.cost_model),
    )
    replicas = {None: ClientState(id=-1, model=x0, hessian=identity)}
    trace = []
    models = [] if keep_models else None
    evals = 0
    started = time.perf_counter()
    for r, sampled in enumerate(plan):
        missed_counts = []
        matrices = []
        for cid in map(int, sampled):
            missed_counts.append(r - server.ledger.last_participation[cid])
            if transport == "replay":
                reader = cid if cid in replicas else None
                missed = fetch_since(server.ledger, replicas[reader].last_round)
                client = client_rebuild(replicas[reader], missed, config.eta, provider)
                for array in (client.model, client.hessian.diag):
                    array.setflags(write=False)
                client = replicas[reader] = replicas[cid] = replace(client, id=cid)
            else:
                client = ClientState(id=cid, model=server.model, hessian=server.hessian)
            matrices.append(client_local_update(client, r, config, task, provider))
            evals += config.tau * (config.perturbations + 1)
        if transport == "natural":
            log = RoundLog(round=r, scalars=aggregate_scalars(matrices, config.quantize_wire))
            model, hessian = _average_deltas(server, matrices, r, config, provider)
        else:
            log, model, hessian = server_aggregate(server, matrices, r, config, provider)
        provider.release(r)
        replicas = {key: held for key, held in replicas.items() if last_read[key] > r}
        prev_meter = server.meter
        server = ServerState(
            model=model,
            hessian=hessian,
            ledger=record_round(server.ledger, log, [int(c) for c in sampled]),
            meter=meter_round(
                server.meter, config.sampled_per_round, config.tau,
                config.perturbations, missed_counts,
            ),
        )
        if keep_models:
            models.append(model.copy())
        trace.append(
            _trace_record(r, task.global_loss(model), server.meter, prev_meter,
                          hessian, evals, missed_counts, started, truth)
        )
    return RunResult(trace=trace, server=server, models=models)
