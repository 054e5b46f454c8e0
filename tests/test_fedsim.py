import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from scalarfed import fedsim, rng
from scalarfed import (ClientState, DiagHessian, DirectionProvider, QuadraticTask,
                       RoundConfig, ServerState, client_local_update, client_rebuild,
                       fetch_since, gaussian_vector, inv_sqrt, run_training,
                       sample_clients, scale_direction, serialize, server_aggregate)
from scalarfed.errors import ConfigError, EstimatorFailureError, ProtocolOrderError
from scalarfed.fedsim import _replay, aggregate_scalars
from scalarfed.harness import fuzz_config
from scalarfed.ledger import CommMeter, Ledger, RoundLog
from scalarfed.rng import mix, start_rows


def small_config(**over):
    base = dict(num_clients=5, sampled_per_round=2, rounds=8, eta=0.02, tau=2,
                perturbations=3, mu=1e-4, nu=0.1, root_seed=41, sampling_seed=51)
    base.update(over)
    return RoundConfig(**base)


def small_task(M=5, dim=10, seed=31):
    return QuadraticTask.build(dim=dim, num_clients=M, seed=seed,
                               spectrum_variance=1.0, offset_scale=0.1, x0_scale=0.5)


def test_config_validation_names_fields():
    with pytest.raises(ConfigError) as err:
        small_config(sampled_per_round=9)
    assert err.value.field == "m"
    with pytest.raises(ConfigError) as err:
        small_config(eta=0.0)
    assert err.value.field == "eta"


def test_replace_revalidates():
    # a config that exists is valid: replace runs the same checks as construction
    with pytest.raises(ConfigError) as err:
        replace(small_config(), eta=0.0)
    assert err.value.field == "eta"


def test_sample_clients_contract():
    all_ids = sample_clients(6, 6, 0, 7)
    assert np.array_equal(all_ids, np.arange(6))
    a = sample_clients(6, 2, 3, 7)
    assert np.array_equal(a, sample_clients(6, 2, 3, 7))
    assert np.all(np.diff(a) > 0)


def test_sample_clients_uniform_frequency():
    counts = np.zeros(6)
    n = 100000
    for r in range(n):
        counts[sample_clients(6, 2, r, 7)] += 1
    freq = counts / n
    assert np.max(np.abs(freq - 1 / 3) / (1 / 3)) < 0.01


def test_sampling_independent_of_direction_grid():
    # changing the root seed must not change who gets sampled
    a = [tuple(sample_clients(8, 3, r, 99)) for r in range(20)]
    cfg1 = small_config(root_seed=1, sampling_seed=99, num_clients=8, sampled_per_round=3)
    cfg2 = small_config(root_seed=2, sampling_seed=99, num_clients=8, sampled_per_round=3)
    b1 = [tuple(sample_clients(cfg1.num_clients, 3, r, cfg1.sampling_seed)) for r in range(20)]
    b2 = [tuple(sample_clients(cfg2.num_clients, 3, r, cfg2.sampling_seed)) for r in range(20)]
    assert a == b1 == b2


def test_local_update_reset_contract():
    cfg = small_config()
    task = small_task()
    provider = DirectionProvider(cfg.schedule(), task.dim)
    client = ClientState(id=0, model=task.x0.copy(), hessian=cfg.initial_hessian(task.dim))
    before = client.model.copy()
    scalars = client_local_update(client, 0, cfg, task, provider)
    assert scalars.shape == (cfg.tau, cfg.perturbations)
    assert np.array_equal(client.model, before)


def test_identical_clients_produce_identical_scalars():
    cfg = small_config()
    task = small_task()
    provider = DirectionProvider(cfg.schedule(), task.dim)
    H = cfg.initial_hessian(task.dim)
    a = ClientState(id=2, model=task.x0.copy(), hessian=H)
    b = ClientState(id=2, model=task.x0.copy(), hessian=H)
    ma = client_local_update(a, 3, cfg, task, provider)
    mb = client_local_update(b, 3, cfg, task, provider)
    assert np.array_equal(ma, mb)


def test_pure_curvature_scalar_small_at_tiny_mu():
    # at a gradient-free point the scalar is mu * z^T A z / 2
    task = QuadraticTask.build(dim=8, num_clients=1, seed=77, spectrum_variance=0.3,
                               offset_scale=0.0, x0_scale=0.0)
    cfg = RoundConfig(num_clients=1, sampled_per_round=1, rounds=1, eta=0.01,
                      tau=1, perturbations=1, mu=1e-6, root_seed=5)
    provider = DirectionProvider(cfg.schedule(), task.dim)
    client = ClientState(id=0, model=task.x0.copy(), hessian=cfg.initial_hessian(task.dim))
    scalars = client_local_update(client, 0, cfg, task, provider)
    assert abs(scalars[0, 0]) <= 1e-5


def test_aggregate_means_and_m1_identity():
    m1 = [np.array([[1.0, 3.0], [5.0, 7.0]])]
    assert np.array_equal(aggregate_scalars(m1), m1[0])
    two = [np.full((2, 2), 1.0), np.full((2, 2), 3.0)]
    assert np.array_equal(aggregate_scalars(two), np.full((2, 2), 2.0))


def test_rebuild_empty_feed_is_identity():
    cfg = small_config()
    task = small_task()
    provider = DirectionProvider(cfg.schedule(), task.dim)
    client = ClientState(id=0, model=task.x0.copy(), hessian=cfg.initial_hessian(task.dim))
    out = client_rebuild(client, [], cfg.eta, provider)
    assert np.array_equal(out.model, client.model)
    assert np.array_equal(out.hessian.diag, client.hessian.diag)


def test_rebuild_gap_rejected():
    cfg = small_config()
    task = small_task()
    provider = DirectionProvider(cfg.schedule(), task.dim)
    client = ClientState(id=0, model=task.x0.copy(), hessian=cfg.initial_hessian(task.dim))
    bad = [RoundLog(round=1, scalars=np.zeros((cfg.tau, cfg.perturbations)))]
    with pytest.raises(ProtocolOrderError):
        client_rebuild(client, bad, cfg.eta, provider)


def test_rebuild_zero_scalars_leave_model_contract_hessian():
    cfg = small_config(nu=0.25)
    task = small_task()
    provider = DirectionProvider(cfg.schedule(), task.dim)
    client = ClientState(id=0, model=task.x0.copy(),
                         hessian=cfg.initial_hessian(task.dim))
    feed = [RoundLog(round=r, scalars=np.zeros((cfg.tau, cfg.perturbations)))
            for r in range(4)]
    out = client_rebuild(client, feed, cfg.eta, provider)
    assert np.array_equal(out.model, client.model)
    n = 4 * cfg.tau
    expected = (1 - 0.25) ** n * 1.0 + cfg.epsilon * (1 - (1 - 0.25) ** n)
    assert np.allclose(out.hessian.diag, expected, rtol=1e-12)


def test_rebuild_closure_matches_shadow_client():
    # a client absent for 5 rounds lands bitwise on the server state;
    # the shadow here is the maintained server model itself plus a
    # never-absent client that rebuilds every round
    cfg = small_config(rounds=12, num_clients=4, sampled_per_round=2)
    task = small_task(M=4)
    provider = DirectionProvider(cfg.schedule(), task.dim)
    result = run_training(cfg, task, keep_models=True)
    ledger = result.server.ledger

    absent = ClientState(id=0, model=task.x0.copy(), hessian=cfg.initial_hessian(task.dim))
    shadow = ClientState(id=1, model=task.x0.copy(), hessian=cfg.initial_hessian(task.dim))
    # shadow replays one round at a time; absent replays the whole history at once
    for r in range(ledger.current_round):
        shadow = client_rebuild(shadow, fetch_since(ledger, r)[:1], cfg.eta, provider)
    absent = client_rebuild(absent, fetch_since(ledger, 0), cfg.eta, provider)
    assert np.array_equal(absent.model, shadow.model)
    assert np.array_equal(absent.hessian.diag, shadow.hessian.diag)
    assert np.array_equal(absent.model, result.models[-1])
    assert np.array_equal(absent.hessian.diag, result.server.hessian.diag)


def capture_updates(monkeypatch):
    """Record (round, client) for every client_local_update the loop makes."""
    taken = []
    update = fedsim.client_local_update

    def recorded(client, r, config, task, provider):
        taken.append((r, client))
        return update(client, r, config, task, provider)

    monkeypatch.setattr(fedsim, "client_local_update", recorded)
    return taken


def test_participants_resync_bitwise_each_round(monkeypatch):
    cfg = small_config(rounds=10)
    task = small_task()
    taken = capture_updates(monkeypatch)
    result = run_training(cfg, task, keep_models=True)
    # every client that participated in round r holds the round-r start model,
    # and its last replica, rebuilt to the end, holds the final one
    starts = [task.x0] + result.models[:-1]
    for r, client in taken:
        assert client.last_round == r
        assert np.array_equal(client.model, starts[r])
    provider = DirectionProvider(cfg.schedule(), task.dim)
    ledger = result.server.ledger
    for client in {client.id: client for _, client in taken}.values():
        rebuilt = client_rebuild(client, fetch_since(ledger, client.last_round),
                                 cfg.eta, provider)
        assert np.array_equal(rebuilt.model, result.models[-1])


def test_one_round_recursion_oracle_tau1():
    # independent implementation of the one-round recursion (tau = 1, P = 1):
    # rebuild block, local update block, aggregation block
    cfg = small_config(tau=1, perturbations=1, rounds=6, num_clients=3,
                      sampled_per_round=2, nu=0.2)
    task = small_task(M=3)
    provider = DirectionProvider(cfg.schedule(), task.dim)

    x = task.x0.copy()
    H = np.ones(task.dim)
    for r in range(cfg.rounds):
        sampled = sample_clients(3, 2, r, cfg.sampling_seed)
        u = provider.u(r, 0, 0)
        z = u / np.sqrt(H)
        gs = []
        for i in sampled:
            base = task.client_loss(int(i), x)
            gs.append((task.client_loss(int(i), x + cfg.mu * z) - base) / cfg.mu)
        g = sum(gs) / len(gs)
        dx = g * z
        x = x - cfg.eta * dx
        H = np.clip((1 - cfg.nu) * H + cfg.nu * (dx * dx + cfg.epsilon),
                    cfg.beta_lower, cfg.beta_upper)

    result = run_training(cfg, task, keep_models=True)
    assert np.max(np.abs(result.models[-1] - x)) <= 1e-12
    assert np.max(np.abs(result.server.hessian.diag - H)) <= 1e-12


def test_run_training_eta_zero_equivalent_flat_loss():
    # eta > 0 is enforced, so probe "no movement" with all-zero scalar replay:
    # a constant loss yields zero scalars and a constant trace
    task = small_task()

    class Constant:
        dim = task.dim
        num_clients = task.num_clients
        x0 = task.x0

        def draw_batch(self, client, r, k, schedule):
            return None

        def client_loss(self, client, x, batch=None):
            return 4.2

        def global_loss(self, x):
            return 4.2

    cfg = small_config(rounds=5)
    result = run_training(cfg, Constant())
    losses = result.losses()
    assert np.all(losses == losses[0])
    assert np.max(np.abs(result.server.model - task.x0)) == 0.0


def test_decomfl_reduction_matches_nu_zero():
    task = small_task()
    base = dict(num_clients=5, sampled_per_round=2, rounds=20, eta=0.02, tau=2,
                perturbations=3, mu=1e-4, root_seed=41, sampling_seed=51)
    hiso0 = run_training(RoundConfig(nu=0.0, algorithm="hiso", **base), task)
    flag = run_training(RoundConfig(nu=0.05, algorithm="decomfl", **base), task)
    for a, b in zip(hiso0.trace, flag.trace):
        assert a["loss"] == b["loss"]
        assert a["h_min"] == b["h_min"] == 1.0
        assert a["h_max"] == b["h_max"] == 1.0


def test_shared_direction_property():
    # all sampled clients in a round consume identical direction vectors:
    # with equal shards and equal round state their scalar matrices coincide,
    # and the direction grid is a pure function of (root, r, k, p)
    cfg = small_config()
    provider = DirectionProvider(cfg.schedule(), 10)
    other = DirectionProvider(cfg.schedule(), 10)
    for k in range(cfg.tau):
        for p in range(cfg.perturbations):
            assert np.array_equal(provider.u(2, k, p), other.u(2, k, p))


def test_trace_record_contents_and_meter_columns():
    cfg = small_config(rounds=4)
    task = small_task()
    result = run_training(cfg, task)
    rec = result.trace[-1]
    for key in ("round", "loss", "uplink_bytes", "downlink_bytes", "cum_uplink_bytes",
                "cum_downlink_bytes", "h_min", "h_median", "h_max",
                "client_fn_evals", "max_stale_rounds", "mean_stale_rounds", "wall_time_s",
                "kappa", "zeta", "spectral_term"):
        assert key in rec
    assert rec["cum_uplink_bytes"] == sum(r["uplink_bytes"] for r in result.trace)
    # uplink per round: m * tau * P * 4 bytes
    assert result.trace[0]["uplink_bytes"] == 2 * 2 * 3 * 4
    # round 0 pulls nothing
    assert result.trace[0]["downlink_bytes"] == 0
    assert rec["client_fn_evals"] == 4 * 2 * 2 * (3 + 1)
    # round 3 samples client 0, never sampled before (replays rounds 0-2), and
    # client 4, last sampled in round 2 (replays round 2)
    assert [list(sample_clients(5, 2, r, cfg.sampling_seed)) for r in (2, 3)] == [[1, 4], [0, 4]]
    assert (rec["max_stale_rounds"], rec["mean_stale_rounds"]) == (3, 2.0)
    for r in result.trace:
        assert r["downlink_bytes"] == r["mean_stale_rounds"] * 2 * 2 * 3 * 4


def test_vector_oracle_bitwise_and_natural_modes():
    cfg = small_config(rounds=10)
    task = small_task()
    scalar = run_training(cfg, task, keep_models=True)
    fixed = run_training(cfg, task, keep_models=True, transport="direct")
    for a, b in zip(scalar.models, fixed.models):
        assert np.array_equal(a, b)
    natural = run_training(cfg, task, keep_models=True, transport="natural")
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(scalar.models, natural.models))
    assert worst <= 1e-9


@pytest.mark.parametrize("quantize", [False, True])
def test_direct_transport_matches_replay_bitwise(quantize):
    # handing state by value must change nothing but the wall time, also when
    # the 32-bit wire rounds the scalars
    cfg = small_config(rounds=10, quantize_wire=quantize)
    task = small_task()
    replay = run_training(cfg, task, keep_models=True)
    direct = run_training(cfg, task, keep_models=True, transport="direct")
    assert [m.tobytes() for m in replay.models] == [m.tobytes() for m in direct.models]
    assert replay.server.hessian.diag.tobytes() == direct.server.hessian.diag.tobytes()
    assert serialize(replay.server.ledger) == serialize(direct.server.ledger)
    assert replay.server.meter == direct.server.meter
    untimed = lambda trace: [dict(rec, wall_time_s=None) for rec in trace]
    assert untimed(replay.trace) == untimed(direct.trace)


@pytest.mark.parametrize("transport", ["replay", "direct", "natural"])
def test_client_count_mismatch_rejected_in_every_transport(transport):
    with pytest.raises(ConfigError) as err:
        run_training(small_config(num_clients=8), small_task(M=5), transport=transport)
    assert err.value.field == "M"


def test_unknown_transport_rejected():
    with pytest.raises(ConfigError) as err:
        run_training(small_config(), small_task(), transport="by-post")
    assert err.value.field == "transport"


def test_wire_quantization_divergence_bounded_not_asserted():
    # with 32-bit wire rounding the scalar path departs from the float64
    # oracle; the gap is measured and must stay small, not zero
    cfg = small_config(rounds=10, quantize_wire=True)
    task = small_task()
    scalar = run_training(cfg, task, keep_models=True)
    oracle = run_training(replace(cfg, quantize_wire=False), task, keep_models=True,
                          transport="direct")
    gaps = [float(np.max(np.abs(a - b))) for a, b in zip(scalar.models, oracle.models)]
    assert gaps[-1] > 0.0
    assert gaps[-1] < 1e-3


def test_estimator_failure_carries_coordinates():
    task = small_task()

    class Exploding:
        dim = task.dim
        num_clients = task.num_clients
        x0 = task.x0

        def draw_batch(self, client, r, k, schedule):
            return None

        def client_loss(self, client, x, batch=None):
            return np.inf if np.any(x != task.x0) else 1.0

        def global_loss(self, x):
            return 1.0

    cfg = small_config(rounds=2)
    with pytest.raises(EstimatorFailureError) as err:
        run_training(cfg, Exploding())
    assert err.value.coords == (0, 0, 0)


class GlobalLossDivergesAt:
    """`task` with a global loss that reads inf from round `at` on."""

    def __init__(self, task, at):
        self.task, self.at, self.calls = task, at, 0

    def __getattr__(self, name):
        return getattr(self.task, name)

    def global_loss(self, x):
        self.calls += 1
        return np.inf if self.calls > self.at else self.task.global_loss(x)


@pytest.mark.parametrize("transport", ["replay", "direct", "natural"])
def test_nonfinite_global_loss_fails_its_round(transport):
    # the last round diverges: the run must fail there, not finish with an inf loss
    with pytest.raises(EstimatorFailureError) as err:
        run_training(small_config(rounds=6), GlobalLossDivergesAt(small_task(), at=5),
                     transport=transport)
    assert err.value.which == "global" and err.value.coords == (5, None, None)
    assert err.value.client is None


@pytest.mark.parametrize("field, value", [
    ("nu", 2.0), ("nu", -0.1), ("epsilon", 0.0), ("beta_lower", 5.0),
    ("beta_lower", 0.0), ("beta_upper", 0.5), ("eta", np.inf), ("eta", np.nan),
    ("mu", 0.0), ("mu", np.inf), ("root_seed", -1), ("root_seed", 2**64), ("sampling_seed", -1),
    ("epsilon", np.inf), ("beta_upper", np.inf),
])
def test_config_rejects_curvature_step_and_seed_fields(field, value):
    with pytest.raises(ConfigError) as err:
        small_config(**{field: value})
    assert err.value.field == field


def test_estimator_failure_carries_client_id():
    task = small_task()

    class ExplodingForClientThree:
        dim = task.dim
        num_clients = task.num_clients
        x0 = task.x0

        def draw_batch(self, client, r, k, schedule):
            return None

        def client_loss(self, client, x, batch=None):
            return np.nan if client == 3 else 1.0

    cfg = small_config()
    provider = DirectionProvider(cfg.schedule(), task.dim)
    client = ClientState(id=3, model=task.x0.copy(), hessian=cfg.initial_hessian(task.dim))
    with pytest.raises(EstimatorFailureError) as err:
        client_local_update(client, 2, cfg, ExplodingForClientThree(), provider)
    assert err.value.client == 3
    assert err.value.coords == (2, 0, None)


# --- the replay kernel ----------------------------------------------------------

KERNEL_GRID = [(tau, P, nu) for tau in (1, 3) for P in (1, 4) for nu in (0.0, 0.05, 1.0)]


def reference_round(model, hessian, scalars, r, provider, eta):
    """One round of the recursion written out of place, step by step."""
    isH = 1.0 / np.sqrt(hessian.diag)
    diag = hessian.diag
    for k in range(scalars.shape[0]):
        zs = [provider.u(r, k, p) * isH for p in range(scalars.shape[1])]
        acc = scalars[k][0] * zs[0]
        for p in range(1, len(zs)):
            acc = acc + scalars[k][p] * zs[p]
        delta = acc / len(zs)
        model = model - eta * delta
        diag = np.clip((1.0 - hessian.nu) * diag + hessian.nu * (delta * delta + hessian.epsilon),
                       hessian.beta_lower, hessian.beta_upper)
    return model, diag


def kernel_setup(tau, P, nu, quantize=True):
    # bounds close to 1, so that the EMA clips some coordinates at each bound
    dim = 256
    cfg = small_config(tau=tau, perturbations=P, nu=nu, beta_lower=0.97, beta_upper=1.5,
                       eta=0.1, quantize_wire=quantize)
    provider = DirectionProvider(cfg.schedule(), dim)
    hessian = replace(cfg.initial_hessian(dim),
                      diag=np.clip(1.0 + 0.1 * gaussian_vector(mix(7, 0), dim), 0.97, 1.5))
    server = ServerState(model=gaussian_vector(mix(7, 1), dim), hessian=hessian,
                         ledger=Ledger(num_clients=cfg.num_clients), meter=CommMeter())
    return cfg, provider, server


def uploads(cfg, r):
    """Scalar matrices large enough that delta^2 crosses the upper bound on
    some coordinates, while coordinates near zero stay under the lower one."""
    shape = (cfg.tau, cfg.perturbations)
    return [10 * gaussian_vector(mix(8, r, i), shape[0] * shape[1]).reshape(shape)
            for i in range(cfg.sampled_per_round)]


@pytest.mark.parametrize("bad", [
    lambda mats: mats[:-1],                        # one matrix short
    lambda mats: mats + mats[:1],                  # one matrix extra
    lambda mats: [mats[0], mats[1][:, :-1]],       # one perturbation short
    lambda mats: [mats[0].T, mats[1]],             # (P, tau) instead of (tau, P)
])
def test_server_aggregate_rejects_wrong_count_or_shape(bad):
    cfg, provider, server = kernel_setup(2, 3, 0.1)
    with pytest.raises(ProtocolOrderError):
        server_aggregate(server, bad(uploads(cfg, 0)), 0, cfg, provider)


@pytest.mark.parametrize("tau, P, nu", KERNEL_GRID)
def test_replay_kernel_matches_out_of_place_reference(tau, P, nu):
    cfg, provider, server = kernel_setup(tau, P, nu)
    log, model, hessian = server_aggregate(server, uploads(cfg, 0), 0, cfg, provider)
    assert np.array_equal(log.scalars, log.scalars.astype(np.float32))  # 32-bit wire
    ref_model, ref_diag = reference_round(server.model, server.hessian, log.scalars, 0,
                                          provider, cfg.eta)
    assert model.tobytes() == ref_model.tobytes()
    assert hessian.diag.tobytes() == ref_diag.tobytes()
    if nu > 0:
        at_lower, at_upper = hessian.diag == 0.97, hessian.diag == 1.5
        assert np.any(at_lower) and np.any(at_upper) and not np.all(at_lower | at_upper)


@pytest.mark.parametrize("tau, P, nu", KERNEL_GRID)
def test_replay_kernel_multi_round_equals_round_by_round(tau, P, nu):
    cfg, provider, server = kernel_setup(tau, P, nu, quantize=False)
    logs = [RoundLog(round=r, scalars=aggregate_scalars(uploads(cfg, r))) for r in range(4)]
    model, hessian = server.model, server.hessian
    for log in logs:
        model, hessian = _replay(model, hessian, [log], provider, cfg.eta)
    whole_model, whole_hessian = _replay(server.model, server.hessian, logs, provider, cfg.eta)
    assert whole_model.tobytes() == model.tobytes()
    assert whole_hessian.diag.tobytes() == hessian.diag.tobytes()


def test_replay_leaves_caller_arrays_untouched(monkeypatch):
    cfg = small_config(rounds=6)
    task = small_task()
    taken = capture_updates(monkeypatch)
    result = run_training(cfg, task, keep_models=True)
    server, provider = result.server, DirectionProvider(cfg.schedule(), task.dim)
    clients = [client for _, client in taken]
    held = ([server.model, server.hessian.diag] + result.models
            + [c.model for c in clients] + [c.hessian.diag for c in clients])
    before = [a.copy() for a in held]
    for client in clients:
        client_rebuild(client, fetch_since(server.ledger, client.last_round), cfg.eta, provider)
    matrices = [np.ones((cfg.tau, cfg.perturbations))] * cfg.sampled_per_round
    server_aggregate(server, matrices, cfg.rounds, cfg, provider)
    for a, b in zip(held, before):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rotate", [False, True])
def test_run_loss_trace_is_mean_client_loss(rotate):
    task = QuadraticTask.build(dim=10, num_clients=5, seed=31, spectrum_variance=1.0,
                               offset_scale=0.1, x0_scale=0.5, rotate=rotate)
    result = run_training(small_config(), task, keep_models=True)
    for rec, model in zip(result.trace, result.models):
        per_client = np.mean([task.client_loss(i, model) for i in range(task.num_clients)])
        assert rec["loss"] == pytest.approx(per_client, rel=1e-13, abs=0)


def test_local_update_mean_step_is_preconditioned_gradient():
    # tau = 1 on a diagonal quadratic: the P steps g_p z_p, rebuilt from the
    # returned scalars and the provider's directions scaled by inv_sqrt(H),
    # average to H^-1 A (x - c_i), the preconditioned client gradient
    task = QuadraticTask.build(dim=8, num_clients=3, seed=61, spectrum_variance=1.0,
                               offset_scale=0.5, x0_scale=1.0)
    cfg = RoundConfig(num_clients=3, sampled_per_round=1, rounds=1, eta=0.01, tau=1,
                      perturbations=4096, mu=1e-6, root_seed=62)
    H = DiagHessian(diag=np.geomspace(0.25, 4.0, 8)[[3, 7, 0, 5, 1, 6, 2, 4]])
    client = ClientState(id=1, model=task.x0.copy(), hessian=H)
    provider = DirectionProvider(cfg.schedule(), task.dim)
    scalars = client_local_update(client, 0, cfg, task, provider)
    isH = inv_sqrt(H)
    steps = np.stack([g * scale_direction(provider.u(0, 0, p), isH)
                      for p, g in enumerate(scalars[0])])
    target = task.spectrum * (client.model - task.centers[1]) / H.diag
    se = steps.std(axis=0) / np.sqrt(len(steps))
    assert np.all(np.abs(steps.mean(axis=0) - target) <= 3 * se)


def cached_bytes(provider):
    """Bytes of the held round."""
    return 0 if provider._block is None else provider._block.nbytes


def live_bytes(provider):
    """Bytes of the held round plus the round in flight."""
    return cached_bytes(provider) + (0 if provider._ahead is None else provider._ahead[2].out.nbytes)


def record_requests(monkeypatch):
    """Record (kind, provider, round, bytes held, bytes held or in flight)
    after every direction block request ("block") or draw ahead ("ahead"),
    and every seed whose draw was started."""
    requests, seeds = [], []
    block, draw_ahead = DirectionProvider.block, DirectionProvider.draw_ahead

    def recorded_block(provider, r, shape):
        got = block(provider, r, shape)
        requests.append(("block", provider, r, cached_bytes(provider), live_bytes(provider)))
        return got

    def recorded_ahead(provider, r, shape):
        draw_ahead(provider, r, shape)
        requests.append(("ahead", provider, r, cached_bytes(provider), live_bytes(provider)))

    def counted_rows(row_seeds, dim):
        seeds.extend(int(seed) for seed in row_seeds)
        return start_rows(row_seeds, dim)

    def counted(seed, dim):
        seeds.append(seed)
        return gaussian_vector(seed, dim)

    monkeypatch.setattr(DirectionProvider, "block", recorded_block)
    monkeypatch.setattr(DirectionProvider, "draw_ahead", recorded_ahead)
    monkeypatch.setattr(fedsim, "start_rows", counted_rows)
    monkeypatch.setattr(fedsim, "gaussian_vector", counted)
    return requests, seeds


@pytest.mark.parametrize("transport", ["replay", "direct", "natural"])
def test_direction_plan_matches_recorded_reads(monkeypatch, transport):
    # Brute-force reference: record every direction request of a run. The
    # run reads rounds in ascending order from one provider and draws ahead
    # only the round it reads next, so every seed of rounds [0, R) is drawn
    # once, none of round R, and after every request the provider holds at
    # most one round and has at most one more in flight.
    requests, seeds = record_requests(monkeypatch)
    inputs = [fuzz_config(3, index) for index in range(6)]
    # M >> m: most clients have been away for many rounds when drawn
    inputs.append((small_config(num_clients=64, sampled_per_round=2, rounds=30),
                   small_task(M=64)))
    for config, task in inputs:
        requests.clear()
        seeds.clear()
        run_training(config, task, transport=transport)
        rounds = [r for kind, _, r, _, _ in requests if kind == "block"]
        assert rounds == sorted(rounds) and set(rounds) == set(range(config.rounds))
        # round r + 1 is drawn ahead once round r is in hand, and never round R
        ahead = [(requests[i - 1][2], r) for i, (kind, _, r, _, _) in enumerate(requests)
                 if kind == "ahead"]
        assert ahead == [(r, r + 1) for r in range(config.rounds - 1)]
        assert len({id(provider) for _, provider, _, _, _ in requests}) == 1
        grid = config.schedule().perturbation_seeds(
            np.arange(config.rounds, dtype=np.uint64)[:, None, None], config.tau,
            config.perturbations)
        assert len(seeds) == len(set(seeds)) == grid.size
        assert set(seeds) == {int(seed) for seed in grid.ravel()}
        one_round = config.tau * config.perturbations * task.dim * 8
        in_flight = config.tau * config.perturbations * 2 * ((task.dim + 1) // 2) * 8  # padded
        assert max(held for _, _, _, held, _ in requests) <= one_round
        assert max(live for _, _, _, _, live in requests) <= one_round + in_flight


@pytest.mark.parametrize("rounds", [6, 24])
def test_full_participation_keeps_one_round_live(monkeypatch, rounds):
    # however long the run and whatever the transport, the provider holds at
    # most one round and has at most one more in flight after every request,
    # and at the end holds exactly the last round with nothing in flight
    cfg = small_config(num_clients=3, sampled_per_round=3, rounds=rounds)
    task = small_task(M=3)
    one_round = cfg.tau * cfg.perturbations * task.dim * 8
    requests, _ = record_requests(monkeypatch)
    for transport in ("replay", "direct", "natural"):
        requests.clear()
        run_training(cfg, task, transport=transport)
        assert max(held for _, _, _, held, _ in requests) == one_round
        assert max(live for _, _, _, _, live in requests) == 2 * one_round
        _, _, last, held, live = requests[-1]
        assert (last, held, live) == (rounds - 1, one_round, one_round)


def test_provider_reused_across_rounds_holds_only_the_last(monkeypatch):
    # a request for another round drops the cached one; the dropped round is
    # generated again, bit for bit, if it is asked for once more
    _, seeds = record_requests(monkeypatch)
    provider = DirectionProvider(small_config().schedule(), 10)
    one_round = 2 * 3 * 10 * 8
    first, again = provider.block(2, (2, 3)), provider.block(2, (2, 3))
    assert first is again and len(seeds) == 6 and not first.flags.writeable
    assert np.shares_memory(provider.u(2, 1, 0), first) and len(seeds) == 6
    assert cached_bytes(provider) == one_round
    provider.block(3, (2, 3))
    assert provider._round == 3 and cached_bytes(provider) == one_round
    assert provider.u(2, 1, 0).tobytes() == first[1, 0].tobytes() and len(seeds) == 13
    assert provider._round == 3  # a row of another round is drawn alone
    assert provider.block(2, (2, 3)).tobytes() == first.tobytes()
    assert len(seeds) == 19 and provider._round == 2 and cached_bytes(provider) == one_round


def test_provider_holds_one_round_and_one_in_flight(monkeypatch):
    # a round drawn ahead is finished by its block request, not drawn again;
    # drawing ahead a held or in-flight round starts nothing; a request for a
    # round neither held nor in flight drops both, and the dropped rounds
    # come back bit for bit
    _, seeds = record_requests(monkeypatch)
    provider = DirectionProvider(small_config().schedule(), 10)
    first = provider.block(2, (2, 3))
    provider.draw_ahead(2, (2, 3))
    assert provider._ahead is None and len(seeds) == 6
    provider.draw_ahead(3, (2, 3))
    provider.draw_ahead(3, (2, 3))
    assert provider._ahead[:2] == (3, (2, 3)) and len(seeds) == 12
    third = provider.block(3, (2, 3))
    assert provider._round == 3 and provider._ahead is None and len(seeds) == 12
    assert not third.flags.writeable and cached_bytes(provider) == 2 * 3 * 10 * 8
    provider.draw_ahead(4, (2, 3))
    assert provider.block(2, (2, 3)).tobytes() == first.tobytes()
    assert provider._ahead is None and len(seeds) == 24
    assert provider.block(3, (2, 3)).tobytes() == third.tobytes() and len(seeds) == 30


@pytest.mark.parametrize("pool", ["pool", "inline"])
def test_drawn_ahead_run_matches_on_demand_draws(monkeypatch, pool):
    # with 7-pair chunks every block spans several, so with the pool each
    # round is drawn on the helpers while the one before runs; the model and
    # the ledger bytes equal those of a run that draws each round when it is
    # asked for, and a fresh replay of the ledger lands on the same model
    monkeypatch.setattr(rng, "_CHUNK_PAIRS", 7)
    if pool == "inline":
        monkeypatch.setattr(rng, "_POOL", (None, 0))
    cfg = small_config(num_clients=8, sampled_per_round=3, rounds=12)
    task = small_task(M=8, dim=101)
    fresh = ClientState(id=0, model=task.x0, hessian=cfg.initial_hessian(task.dim))

    ahead = run_training(cfg, task)
    monkeypatch.setattr(DirectionProvider, "draw_ahead", lambda provider, r, shape: None)
    on_demand = run_training(cfg, task)
    assert serialize(ahead.server.ledger) == serialize(on_demand.server.ledger)
    assert ahead.server.model.tobytes() == on_demand.server.model.tobytes()
    assert ahead.server.hessian.diag.tobytes() == on_demand.server.hessian.diag.tobytes()
    replayed = client_rebuild(fresh, fetch_since(ahead.server.ledger, 0), cfg.eta,
                              DirectionProvider(cfg.schedule(), task.dim))
    assert replayed.model.tobytes() == ahead.server.model.tobytes()


@pytest.mark.parametrize("transport", ["replay", "direct", "natural"])
@pytest.mark.parametrize("tau", [1, 3])
def test_step_zero_is_built_once_per_round(monkeypatch, transport, tau):
    # every client of a round is handed one read-only RoundStart, built once;
    # its scalars equal those of an update that builds its own (a replace()d
    # client carries none), and at tau = 1 it holds the P points alone
    cfg = small_config(num_clients=6, sampled_per_round=3, rounds=5, tau=tau)
    task = small_task(M=6)
    taken, built = capture_updates(monkeypatch), []
    round_start = fedsim.round_start

    def counted(client, r, config, provider):
        built.append(r)
        return round_start(client, r, config, provider)

    monkeypatch.setattr(fedsim, "round_start", counted)
    run_training(cfg, task, transport=transport)
    assert built == list(range(cfg.rounds))
    provider = DirectionProvider(cfg.schedule(), task.dim)
    for r, client in taken:
        start, own_start = client.start, replace(client)
        assert own_start.start is None and (start.zs is None) == (tau == 1)
        assert not start.points.flags.writeable and start.points.shape == (3, task.dim)
        shared = client_local_update(client, r, cfg, task, provider)
        own = client_local_update(own_start, r, cfg, task, provider)
        assert shared.tobytes() == own.tobytes()
    assert len({id(client.start) for _, client in taken}) == cfg.rounds


def test_memory_does_not_grow_with_rounds():
    # M >> m at d = 5000: the run's traced peak at R = 160 exceeds the peak
    # at R = 10 by less than one round of directions (P * d * 8 bytes)
    def peak(rounds):
        cfg = small_config(num_clients=64, sampled_per_round=2, rounds=rounds, tau=1,
                           perturbations=5)
        task = small_task(M=64, dim=5000)
        tracemalloc.start()
        try:
            run_training(cfg, task)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(160) - peak(10) < 5 * 5000 * 8


def test_never_sampled_clients_share_one_read_only_start(monkeypatch):
    cfg = small_config(num_clients=64, sampled_per_round=2, rounds=10)
    task = small_task(M=64)
    taken = capture_updates(monkeypatch)
    result = run_training(cfg, task)
    assert task.x0.flags.writeable  # the task's own start is not frozen
    # every replica a client takes, first draws from the shared replica
    # included, is read-only
    for _, client in taken:
        with pytest.raises(ValueError):
            client.model[0] = 1.0
        with pytest.raises(ValueError):
            client.hessian.diag[0] = 1.0
    provider = DirectionProvider(cfg.schedule(), task.dim)
    fresh = ClientState(id=0, model=task.x0, hessian=cfg.initial_hessian(task.dim))
    rebuilt = client_rebuild(fresh, fetch_since(result.server.ledger, 0), cfg.eta, provider)
    assert rebuilt.model.tobytes() == result.server.model.tobytes()
    assert rebuilt.hessian.diag.tobytes() == result.server.hessian.diag.tobytes()


def test_replicas_live_only_until_their_last_read(monkeypatch):
    # M >> m: the read-only x0 start, handed out in round 0, lives for the
    # whole run; from round 1 on, at every local update the only other replica
    # model alive is the one the update is handed, the shadow's, which the
    # next round replaces
    cfg = small_config(num_clients=64, sampled_per_round=2, rounds=30)
    task = small_task(M=64)
    arrays, alive = [], []
    update = fedsim.client_local_update

    def measured(client, r, config, task, provider):
        if r and not any(ref() is client.model for ref in arrays):
            arrays.append(weakref.ref(client.model))
        gc.collect()
        alive.append(sum(ref() is not None for ref in arrays))
        return update(client, r, config, task, provider)

    monkeypatch.setattr(fedsim, "client_local_update", measured)
    run_training(cfg, task)
    assert alive == [0] * cfg.sampled_per_round + [1] * ((cfg.rounds - 1) * cfg.sampled_per_round)
    assert len(arrays) == cfg.rounds - 1


def test_shared_replica_matches_independent_rebuilds(monkeypatch):
    # Each client's replica at its first appearance f equals a fresh start
    # rebuilt on its own over rounds [0, f), and the shadow replays each
    # round once, however many clients it serves: R - 1 rebuilds of one
    # round each, against sum(first) separate catch-ups.
    cfg = small_config(num_clients=64, sampled_per_round=2, rounds=30)
    task = small_task(M=64)
    updates, replayed = capture_updates(monkeypatch), []
    rebuild = fedsim.client_rebuild

    def counted_rebuild(client, missed, eta, provider):
        replayed.append(len(missed))
        return rebuild(client, missed, eta, provider)

    monkeypatch.setattr(fedsim, "client_rebuild", counted_rebuild)
    result = run_training(cfg, task)
    taken = {client.id: (r, client) for r, client in reversed(updates)}
    feed = fetch_since(result.server.ledger, 0)
    provider = DirectionProvider(cfg.schedule(), task.dim)
    for cid, (first, client) in taken.items():
        fresh = ClientState(id=cid, model=task.x0.copy(), hessian=cfg.initial_hessian(task.dim))
        alone = rebuild(fresh, feed[:first], cfg.eta, provider)
        assert client.last_round == alone.last_round == first
        assert client.model.tobytes() == alone.model.tobytes()
        assert client.hessian.diag.tobytes() == alone.hessian.diag.tobytes()
    assert sum(first for first, _ in taken.values()) > cfg.rounds
    assert replayed == [1] * (cfg.rounds - 1)
