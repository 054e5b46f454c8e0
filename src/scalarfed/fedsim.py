"""Round orchestration for the scalar-only federated protocol.

One round: the server samples clients; each sampled client replays the
global scalar history it missed (Rebuild), bringing its model and curvature
replica bitwise equal to the server state; it then runs tau local steps along
shared seed-derived directions, collecting tau x P LOCAL gradient scalars,
and resets its model to the round-start value; the server averages the
scalar matrices, advances the model and the curvature EMA, and appends the
round log to the ledger. Rebuild closure (a client that was absent lands on
the state of one that never left) lets the simulator run that replay once
per round, on one shadow replica that every sampled client is handed.

One round loop, run_training, serves the protocol and its full-vector
oracles; they differ only in how round-start state reaches a client (see its
`transport`). Rebuild and aggregation advance state through one replay
kernel, in place on private copies, with the curvature validated once at the
kernel boundary. It and the local update share the helpers
(scale_direction, multi_perturbation_delta, fold_mean, ema_update) with
fixed fold orders: ascending client id, ascending local step, ascending
perturbation. A round's directions stay one (tau, P, d) block from draw to
step, and each step takes its (P, d) rows whole. That discipline is what
makes replay, rebuild and the full-vector oracle agree to the last bit.
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
    provider without coupling. A round's seeds come from one array call and
    its rows from one start_rows draw; the round is then held, read-only.
    draw_ahead(r, shape) starts round r's draw on the rng helper threads, so
    that a later block(r, shape) only finishes it. The provider holds one
    round and has at most one more in flight: block() for the round in
    flight makes it the held one, and block() for any other round drops
    both (a dropped draw runs out on the helpers and is freed). Every reader
    (the server, the shadow replica, the local updates, an offline replay)
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
        seeds = self.schedule.perturbation_seeds(r, *shape).reshape(-1)
        return r, shape, start_rows(seeds, self.dim)

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
    curvature, the P perturbed points x + mu*z and, for tau > 1, the scaled
    rows z that step 0's update folds. Read-only, so every client handed the
    replica shares it."""

    isH: np.ndarray
    points: np.ndarray
    zs: np.ndarray = None


@dataclass
class ClientState:
    """A client's replica: model, curvature estimate, last participation.

    `start` is set only by run_training, on the copy of the round's replica
    that it hands one local update: that round's step-0 arrays. It is not an
    init field, so replace() and every state built from a client lack it.
    """

    id: int
    model: np.ndarray
    hessian: DiagHessian
    last_round: int = 0
    start: RoundStart = field(default=None, init=False, repr=False, compare=False)


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


def _replay(model, hessian, logs, provider, eta):
    """Advance (model, H) through recorded rounds of global scalars, in place
    on private copies with scratch allocated once per call; the curvature is
    validated once, at the end. Directions use the round-start curvature; the
    EMA advances once per local step and shows only from the next round on."""
    model, diag = model.copy(), hessian.diag.copy()
    isH, delta, work = (np.empty_like(diag) for _ in range(3))
    zs = np.empty((logs[0].scalars.shape[1], diag.size)) if logs else None
    for log in logs:
        inv_sqrt(diag, out=isH)
        directions = provider.block(log.round, log.scalars.shape)
        for k, scalars in enumerate(log.scalars):
            scale_direction(directions[k], isH, out=zs)
            multi_perturbation_delta(scalars, zs, out=delta, work=zs)
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


def _perturbed(x, zs, mu, out=None) -> np.ndarray:
    """The (P, d) points x + mu*z of scaled rows zs, into `out` (zs itself
    may be it): fl(fl(z*mu) + x), the bits of x + mu*z."""
    points = np.multiply(zs, mu, out=out)
    points += x
    return points


def round_start(client: ClientState, r: int, config: RoundConfig,
                provider: DirectionProvider) -> RoundStart:
    """Round r's step-0 arrays from the client's replica, the same for every
    client handed it. At tau = 1 the scaled rows become the points in place,
    as step 0's update is never taken."""
    isH = inv_sqrt(client.hessian)
    zs = scale_direction(provider.block(r, (config.tau, config.perturbations))[0], isH)
    points = _perturbed(client.model, zs, config.mu, out=zs if config.tau == 1 else None)
    for array in (isH, zs, points):
        array.setflags(write=False)
    return RoundStart(isH, points, zs if config.tau > 1 else None)


def _handed(replica: ClientState, cid: int, start: RoundStart) -> ClientState:
    """The replica as client cid's, carrying the round's step-0 arrays."""
    client = replace(replica, id=cid)
    client.start = start
    return client


def client_local_update(client: ClientState, r: int, config: RoundConfig,
                        task, provider: DirectionProvider) -> np.ndarray:
    """Run tau local steps and return the (tau, P) LOCAL scalar matrix.

    This is the one forward-difference estimator: every scalar is
    (f(x + mu*z) - f(x)) / mu, and at each step the P perturbed losses share
    one base evaluation and one batch. The trajectory uses the client's own
    scalars; the model is reset to its round-start value afterwards (the
    caller's ClientState is untouched), so all durable state flows
    exclusively through the global scalars. Step 0 reads the client's
    `start`, which run_training builds once per round, from the replica it
    hands every sampled client, for this round and config; a client without
    one (verify_lemmas, tests) builds it through round_start. Steps k >= 1
    are the client's own.
    """
    start = client.start
    if start is None:
        start = round_start(client, r, config, provider)
    x, isH, mu = client.model, start.isH, config.mu
    scalars = np.empty((config.tau, config.perturbations))
    for k in range(config.tau):
        batch = task.draw_batch(client.id, r, k, provider.schedule)
        base = task.client_loss(client.id, x, batch)
        if not np.isfinite(base):
            raise EstimatorFailureError(
                f"client {client.id} base loss diverged at round {r}, step {k}",
                which="base", coords=(r, k, None), client=client.id,
            )
        if k:
            zs = scale_direction(provider.block(r, scalars.shape)[k], isH)
            points = _perturbed(x, zs, mu)
        else:
            zs, points = start.zs, start.points
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
            # step 0's rows are shared: its fold takes fresh scratch
            x = x - config.eta * multi_perturbation_delta(scalars[k], zs, work=zs if k else None)
    return scalars


def aggregate_scalars(matrices, quantize: bool = False) -> np.ndarray:
    """Per-(step, perturbation) mean over clients, folded in ascending client
    order. Optionally models the 32-bit wire by rounding each uploaded matrix
    and the aggregated result."""
    if not quantize:
        return fold_mean(matrices)
    return _quantize(fold_mean([_quantize(mat) for mat in matrices]))


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
    directions = provider.block(r, (config.tau, config.perturbations))
    for k in range(config.tau):
        zs = scale_direction(directions[k], isH)
        delta = fold_mean([multi_perturbation_delta(mat[k], zs) for mat in matrices])
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
    scalars; it agrees only to rounding. Only "replay" keeps a replica.

    Under "replay" the run keeps one shadow replica, the client that never
    left: it starts as the read-only (x0, identity) pair and, at the top of
    every round after the first, rebuilds over the one ledger round it
    missed; its arrays are then frozen (rebuild copies before it advances).
    Rebuild closure makes it the state that any absent client would rebuild,
    so every sampled client is handed the shadow under its own id: the
    shadow rebuilds each round once, however many clients return to it, the
    server's aggregation replays it once more on its own arrays, and no
    server vector reaches a client. Clients are sampled round by round and
    every reader asks for directions in ascending rounds. As soon as round
    r's block is in hand the provider starts drawing round r + 1 (if r + 1 <
    R), which the rng helper threads do while round r runs, so each
    direction is drawn once, at most two rounds are live, and memory does
    not grow with R. The step-0 arrays are built once per round, by
    round_start from the shadow (under the oracles, from the server state
    they hand over), and every sampled client is handed them with the
    replica. Missed rounds, and so the meter and staleness, count from the
    ledger's last participation. Where the task's optional
    `curvature_truth()` returns (Sigma, L), each record carries the
    diagnostics. A round whose new server model has a non-finite global loss
    raises EstimatorFailureError (which="global") before its trace record.
    The loop ignores numpy's overflow and invalid warnings, so an overflowing
    loss always fails as EstimatorFailureError, even under `python -W error`.
    """
    check_range("transport", transport, transport in ("replay", "direct", "natural"),
                "replay, direct or natural")
    check_range("task num_clients", task.num_clients, task.num_clients == config.num_clients,
                f"the config's M = {config.num_clients}", SPEC_NAMES["num_clients"])
    dim = task.dim
    truth = task.curvature_truth() if hasattr(task, "curvature_truth") else None
    provider = DirectionProvider(config.schedule(), dim)
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
    shadow = ClientState(id=-1, model=x0, hessian=identity)
    trace = []
    models = [] if keep_models else None
    evals = 0
    shape = (config.tau, config.perturbations)
    started = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails below
        for r in range(config.rounds):
            sampled = [int(c) for c in sample_clients(config.num_clients, config.sampled_per_round,
                                                       r, config.sampling_seed)]
            if transport != "replay":  # the oracles hand the server state over by value
                shadow = ClientState(id=-1, model=server.model, hessian=server.hessian)
            elif r:
                shadow = client_rebuild(shadow, fetch_since(server.ledger, shadow.last_round),
                                        config.eta, provider)
                for array in (shadow.model, shadow.hessian.diag):
                    array.setflags(write=False)
            provider.block(r, shape)  # round r in hand: draw round r + 1 behind this one
            if r + 1 < config.rounds:
                provider.draw_ahead(r + 1, shape)
            start = round_start(shadow, r, config, provider)  # step 0, once for all clients
            missed_counts = [r - server.ledger.last_participation[cid] for cid in sampled]
            matrices = [client_local_update(_handed(shadow, cid, start), r, config, task, provider)
                        for cid in sampled]
            del start  # its (P, d) points are not kept through the aggregation
            evals += len(sampled) * config.tau * (config.perturbations + 1)
            if transport == "natural":
                log = RoundLog(round=r, scalars=aggregate_scalars(matrices, config.quantize_wire))
                model, hessian = _average_deltas(server, matrices, r, config, provider)
            else:
                log, model, hessian = server_aggregate(server, matrices, r, config, provider)
            prev_meter = server.meter
            server = ServerState(
                model=model,
                hessian=hessian,
                ledger=record_round(server.ledger, log, sampled),  # appends in place
                meter=meter_round(
                    server.meter, config.sampled_per_round, config.tau,
                    config.perturbations, missed_counts,
                ),
            )
            if keep_models:
                models.append(model.copy())
            loss = task.global_loss(model)
            if not np.isfinite(loss):
                raise EstimatorFailureError(f"global loss diverged at round {r}",
                                            which="global", coords=(r, None, None))
            trace.append(_trace_record(r, loss, server.meter, prev_meter, hessian, evals,
                                       missed_counts, started, truth))
    return RunResult(trace=trace, server=server, models=models)
