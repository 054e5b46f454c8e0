"""Round orchestration for the scalar-only federated protocol.

One round: the server samples clients; each sampled client replays the
global scalar history it missed (Rebuild), bringing its model and curvature
replica bitwise equal to every other party's; it then runs tau local steps
along shared seed-derived directions, collecting tau x P LOCAL gradient
scalars, and resets its model to the round-start value; the server averages
the scalar matrices and appends the round log to the ledger. The server
keeps only scalars: the model and the curvature EMA exist as replicas that
any party rebuilds from the log.

One round loop, run_training, serves the protocol and its full-vector
oracles. It holds one replica of the round-start state and hands it to every
sampled client: rebuild closure (a client that was absent lands on the state
of one that never left) makes it the state each of them would rebuild. The
transports differ only in how that replica advances once a round is
recorded (see its `transport`). Rebuild and the direct oracle advance state
through one replay kernel, client_rebuild, in place on private copies, with
the curvature validated once at the kernel boundary. It and the local update
share the helpers (scale_direction, multi_perturbation_delta, fold_mean,
ema_update) with fixed fold orders: ascending client id, ascending local
step, ascending perturbation. A round's directions stay one (tau, P, d) block from
draw to step, and each step folds its (P, d) raw rows one at a time. That
discipline is what makes replay, rebuild and the full-vector oracle agree to
the last bit.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .curvature import (DEFAULT_BETA_LOWER, DEFAULT_BETA_UPPER, DEFAULT_EPSILON, DEFAULT_NU,
                        DiagHessian, diagnostics, ema_update, inv_sqrt)
from .errors import EstimatorFailureError, ProtocolOrderError, check_range, check_type
from .ledger import CommMeter, Ledger, RoundLog, WireCostModel, fetch_since, meter_round, record_round
from .rng import SeedSchedule, gaussian_vector, sample_without_replacement, start_rows
from .zo import fold_mean, multi_perturbation_delta, scale_direction


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
        return DiagHessian.identity(dim, nu=self.effective_nu, epsilon=self.epsilon,
                                    beta_lower=self.beta_lower, beta_upper=self.beta_upper)


class DirectionProvider:
    """Seed -> raw Gaussian direction lookup shared by all parties.

    block(r, (tau, P)) is round r's (tau, P, d) array of directions, a pure
    function of the schedule, so server, clients and oracles may share one
    provider without coupling. A round's seeds come from one round_seeds
    call and its rows from one start_rows draw; the round is then held,
    read-only.
    draw_ahead(r, shape) starts round r's draw on the rng helper threads, so
    that a later block(r, shape) only finishes it. The provider holds one
    round and has at most one more in flight: block() for the round in
    flight makes it the held one, and block() for any other round drops
    both (a dropped draw runs out on the helpers and is freed). Every reader
    (the run's replica, the local updates, an offline replay)
    asks for rounds in ascending order, and run_training draws ahead only
    the round it reads next, so each direction is drawn once.
    u(r, k, p) is one row: a row of the held round, or else drawn alone.
    """

    def __init__(self, schedule: SeedSchedule, dim: int):
        self.schedule = schedule
        self.dim = dim
        self._round = None
        self._block = None  # (tau, P, d) directions of round self._round
        self._ahead = None  # (round, shape, RowDraw) of the round in flight

    def _start(self, r: int, shape: tuple):
        return r, shape, start_rows(self.schedule.round_seeds(r, *shape), self.dim)

    def draw_ahead(self, r: int, shape) -> None:
        """Start drawing round r unless it is held or in flight; a draw in
        flight for another round is dropped."""
        shape = tuple(shape)
        if not (r == self._round and self._block.shape[:2] == shape
                or self._ahead is not None and self._ahead[:2] == (r, shape)):
            self._ahead = self._start(r, shape)

    def block(self, r: int, shape) -> np.ndarray:
        shape = tuple(shape)
        if r != self._round or self._block.shape[:2] != shape:
            ahead, self._ahead = self._ahead, None
            self._round = self._block = None  # drop the old round before drawing
            if ahead is None or ahead[:2] != (r, shape):
                ahead = self._start(r, shape)
            self._block = ahead[2].finish().reshape(*shape, self.dim)
            self._block.setflags(write=False)
            self._round = r
        return self._block

    def u(self, r: int, k: int, p: int) -> np.ndarray:
        if r == self._round and k < self._block.shape[0] and p < self._block.shape[1]:
            return self._block[k, p]
        return gaussian_vector(self.schedule.perturbation_seed(r, k, p), self.dim)


@dataclass(frozen=True)
class RoundStart:
    """Step 0 of one round from one replica: the inverse square-root
    curvature and the P perturbed points x + mu*z. Read-only, so every
    client handed the replica shares it; step 0's update (tau > 1) folds the
    raw rows with isH, as every other step does."""

    isH: np.ndarray
    points: np.ndarray


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


def _quantize(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def _check_curvature(diag, r: int) -> None:
    """EstimatorFailureError naming round r if the curvature EMA has left
    the reals. The EMA clips every finite value into its bounds, so only a
    NaN escapes them: a squared step that overflowed, times nu = 0. NaN is
    sticky, and the entries are positive, so their sum is NaN exactly then."""
    if np.isnan(diag.sum()):
        raise EstimatorFailureError(f"curvature diverged at round {r}: a squared step overflowed",
                                    which="curvature", coords=(r, None, None))


def client_rebuild(client: ClientState, missed, eta: float,
                   provider: DirectionProvider) -> ClientState:
    """Replay missed rounds' global scalars to resynchronize with the server.

    The one replay kernel, run by the protocol's and the direct oracle's
    advance and by every offline replay: the replica lands bitwise on the
    server values, as it runs the server's exact arithmetic on the values the
    ledger stored. It works on private copies with three scratch vectors
    allocated once per call (the fold takes the raw rows one at a time, no
    (P, d) block); the curvature is checked once per round and validated at
    the end. Directions use the round-start curvature; the EMA advances once
    per local step and shows only from the next round on.
    """
    for expected, log in enumerate(missed, start=client.last_round):
        if log.round != expected:
            raise ProtocolOrderError(f"rebuild feed has round {log.round}, expected {expected}")
    hessian = client.hessian
    model, diag = client.model.copy(), hessian.diag.copy()
    isH, delta, work = (np.empty_like(diag) for _ in range(3))
    for log in missed:
        inv_sqrt(diag, out=isH)
        directions = provider.block(log.round, log.scalars.shape)
        for k, scalars in enumerate(log.scalars):
            multi_perturbation_delta(scalars, directions[k], isH, out=delta, work=work)
            model -= np.multiply(delta, eta, out=work)
            ema_update(hessian, delta, out=diag, work=work)
        _check_curvature(diag, log.round)
    return replace(client, model=model, hessian=replace(hessian, diag=diag),
                   last_round=client.last_round + len(missed))


def _perturbed(x, rows, isH, mu) -> np.ndarray:
    """The (P, d) points x + mu*z of raw rows scaled by isH, in one new
    block: fl(fl(fl(u*isH)*mu) + x), the bits of x + mu*z."""
    points = scale_direction(rows, isH)
    points *= mu
    points += x
    return points


def round_start(client: ClientState, r: int, config: RoundConfig,
                provider: DirectionProvider) -> RoundStart:
    """Round r's step-0 arrays from the client's replica, the same for every
    client handed it."""
    isH = inv_sqrt(client.hessian)
    points = _perturbed(client.model, provider.block(r, (config.tau, config.perturbations))[0],
                        isH, config.mu)
    for array in (isH, points):
        array.setflags(write=False)
    return RoundStart(isH, points)


def client_local_update(client: ClientState, r: int, config: RoundConfig,
                        task, provider: DirectionProvider, start: RoundStart = None) -> np.ndarray:
    """Run tau local steps and return the (tau, P) LOCAL scalar matrix.

    This is the one forward-difference estimator: every scalar is
    (f(x + mu*z) - f(x)) / mu, and at each step the P perturbed losses share
    one base evaluation and one batch. The trajectory uses the client's own
    scalars; the model is reset to its round-start value afterwards (the
    caller's ClientState is untouched), so all durable state flows
    exclusively through the global scalars. Step 0 reads `start`, round r's
    step-0 arrays from this client's replica and config, which run_training
    builds once per round and passes to every sampled client; without it
    (verify_lemmas, tests) the update builds its own through round_start.
    Steps k >= 1 are the client's own.
    """
    if start is None:
        start = round_start(client, r, config, provider)
    x, isH, mu = client.model, start.isH, config.mu
    directions = provider.block(r, (config.tau, config.perturbations))
    scalars = np.empty((config.tau, config.perturbations))
    for k in range(config.tau):
        batch = task.draw_batch(client.id, r, k, provider.schedule)
        base = task.client_loss(client.id, x, batch)
        if not np.isfinite(base):
            raise EstimatorFailureError(
                f"client {client.id} base loss diverged at round {r}, step {k}",
                which="base", coords=(r, k, None), client=client.id,
            )
        points = _perturbed(x, directions[k], isH, mu) if k else start.points
        losses = np.array([task.client_loss(client.id, point, batch) for point in points])
        diverged = np.flatnonzero(~np.isfinite(losses))
        if diverged.size:
            p = int(diverged[0])
            raise EstimatorFailureError(
                f"client {client.id} perturbed loss diverged at round {r}, "
                f"step {k}, perturbation {p}",
                which="perturbed", coords=(r, k, p), client=client.id,
            )
        scalars[k] = (losses - base) / mu
        if k + 1 < config.tau:  # the reset discards the model after the last step
            x = x - config.eta * multi_perturbation_delta(scalars[k], directions[k], isH)
    return scalars


def aggregate_scalars(matrices, quantize: bool = False) -> np.ndarray:
    """Per-(step, perturbation) mean over clients, folded in ascending client
    order. Optionally models the 32-bit wire by rounding each uploaded matrix
    and the aggregated result."""
    if not quantize:
        return fold_mean(matrices)
    return _quantize(fold_mean([_quantize(mat) for mat in matrices]))


def server_aggregate(matrices, r: int, config: RoundConfig) -> RoundLog:
    """Round r's log: the checked count and shape of the clients' scalar
    matrices, then their mean (over the modelled 32-bit wire if the config
    says so). The server's whole job in the protocol; the model advance is a
    replica's rebuild (client_rebuild) or the natural oracle's _average_deltas."""
    if len(matrices) != config.sampled_per_round:
        raise ProtocolOrderError(
            f"expected {config.sampled_per_round} scalar matrices, got {len(matrices)}"
        )
    shape = (config.tau, config.perturbations)
    for mat in matrices:
        if mat.shape != shape:
            raise ProtocolOrderError(f"scalar matrix shape {mat.shape} != {shape}")
    return RoundLog(round=r, scalars=aggregate_scalars(matrices, quantize=config.quantize_wire))


def _average_deltas(replica: ClientState, matrices, r: int, config: RoundConfig,
                    provider: DirectionProvider) -> ClientState:
    """The natural model-averaging server step on the round-start replica:
    mean of the clients' per-step delta vectors, returned as the replica
    advanced to round r + 1. Mathematically the replay of the mean scalars,
    but floating-point distinct. Its curvature is checked as client_rebuild's
    is."""
    model, diag = replica.model, replica.hessian.diag.copy()
    isH = inv_sqrt(diag)
    directions = provider.block(r, (config.tau, config.perturbations))
    for k in range(config.tau):
        delta = fold_mean([multi_perturbation_delta(mat[k], directions[k], isH)
                           for mat in matrices])
        model = model - config.eta * delta
        ema_update(replica.hessian, delta, out=diag)
    _check_curvature(diag, r)
    return replace(replica, model=model, hessian=replace(replica.hessian, diag=diag),
                   last_round=r + 1)


@dataclass
class RunResult:
    trace: list
    server: ServerState
    models: list = None  # per-round post-update models, read-only, if requested

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
    """Execute R rounds; `transport` is how the round-start replica advances.

    The run holds one replica (a ClientState) of the round-start model and
    curvature. It starts as the read-only (x0, identity) pair; every sampled
    client is handed it under its own id; once the round is recorded it
    advances, and its new arrays are frozen, in every transport. The server
    checks and aggregates the clients' scalars (server_aggregate), records the
    round in the ledger and meters it. RunResult.server is built once, after
    the last round, from the final replica, the ledger and the meter.

    "replay": the scalar-only protocol; the replica rebuilds (client_rebuild)
    from the ledger over the round just recorded, as any absent client would,
    so each round is replayed once however many clients return, and no
    server vector reaches a client. "direct": the full-vector oracle; the
    replica rebuilds over the round's log as the server holds it, not as read
    back from the ledger. record_round appends that very log, so the two
    differ only in where it is read from, and must agree bitwise in models,
    ledger, meter and trace (bar wall time); any difference convicts the
    ledger's bookkeeping (record_round, fetch_since, last_round). "natural":
    the server averages the clients' delta vectors (_average_deltas) instead
    of replaying the mean scalars; it agrees only to rounding.

    Clients are sampled round by round and every reader asks for directions
    in ascending rounds. As soon as round r's block is in hand the provider
    starts drawing round r + 1 (if r + 1 < R), which the rng helper threads
    do while round r runs, so each direction is drawn once, at most two
    rounds are live, and memory does not grow with R. The step-0 arrays are
    built once per round, by round_start from the replica, and passed to
    every sampled client's update. Missed rounds, and so the meter and
    staleness, count from the ledger's last participation. Where the task's
    optional `curvature_truth()` returns (Sigma, L), each record carries the
    diagnostics. A round whose new model has a non-finite global loss raises
    EstimatorFailureError (which="global"), and one whose curvature EMA
    overflows raises it with which="curvature", in every transport before
    the round's trace record. The loop ignores numpy's overflow and invalid
    warnings, so an overflowing loss always fails as EstimatorFailureError,
    even under `python -W error`.
    """
    check_range("transport", transport, transport in ("replay", "direct", "natural"),
                "replay, direct or natural")
    check_range("task num_clients", task.num_clients, task.num_clients == config.num_clients,
                f"the config's M = {config.num_clients}", SPEC_NAMES["num_clients"])
    dim = task.dim
    truth = task.curvature_truth() if hasattr(task, "curvature_truth") else None
    provider = DirectionProvider(config.schedule(), dim)
    x0 = np.asarray(task.x0, dtype=np.float64).view()  # read-only, the task's own stays writeable
    replica = ClientState(id=-1, model=x0, hessian=config.initial_hessian(dim))
    for array in (x0, replica.hessian.diag):
        array.setflags(write=False)
    ledger = Ledger(num_clients=config.num_clients)
    meter = CommMeter(cost=config.cost_model)
    trace = []
    models = [] if keep_models else None
    evals = 0
    shape = (config.tau, config.perturbations)
    started = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails below
        for r in range(config.rounds):
            sampled = [int(c) for c in sample_clients(config.num_clients, config.sampled_per_round,
                                                       r, config.sampling_seed)]
            provider.block(r, shape)  # round r in hand: draw round r + 1 behind this one
            if r + 1 < config.rounds:
                provider.draw_ahead(r + 1, shape)
            start = round_start(replica, r, config, provider)  # step 0, once for all clients
            missed_counts = [r - ledger.last_participation[cid] for cid in sampled]
            matrices = [client_local_update(replace(replica, id=cid), r, config, task, provider,
                                            start)
                        for cid in sampled]
            del start  # its (P, d) points are not kept through the round's replay
            evals += len(sampled) * config.tau * (config.perturbations + 1)
            log = server_aggregate(matrices, r, config)
            record_round(ledger, log, sampled)  # appends in place
            if transport == "natural":
                replica = _average_deltas(replica, matrices, r, config, provider)
            else:
                feed = fetch_since(ledger, replica.last_round) if transport == "replay" else [log]
                replica = client_rebuild(replica, feed, config.eta, provider)
            for array in (replica.model, replica.hessian.diag):
                array.setflags(write=False)  # shared by the next round's clients; an advance copies
            prev_meter, meter = meter, meter_round(meter, config.sampled_per_round, config.tau,
                                                   config.perturbations, missed_counts)
            if keep_models:
                models.append(replica.model)
            loss = task.global_loss(replica.model)
            if not np.isfinite(loss):
                raise EstimatorFailureError(f"global loss diverged at round {r}",
                                            which="global", coords=(r, None, None))
            trace.append(_trace_record(r, loss, meter, prev_meter, replica.hessian, evals,
                                       missed_counts, started, truth))
    server = ServerState(model=replica.model, hessian=replica.hessian, ledger=ledger, meter=meter)
    return RunResult(trace=trace, server=server, models=models)
