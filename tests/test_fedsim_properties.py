"""The bitwise gates over generated runs: rebuild closure (every replica a
sampled client is handed equals what its own lineage of rebuilds from a
fresh start gives) and "replay" == "direct" (models, ledger bytes, meter and
trace bar wall time)."""

from hypothesis import example, given, settings, strategies as st

from scalarfed import (ClientState, DirectionProvider, QuadraticTask, RoundConfig, client_rebuild,
                       fetch_since, run_training, serialize)
from scalarfed import fedsim

SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def runs(draw):
    """(M, m, R, tau, P, seeds, quantize_wire, algorithm, ...) as keyword
    arguments for `build`."""
    M = draw(st.integers(1, 10))
    return dict(M=M, m=draw(st.integers(1, M)), R=draw(st.integers(1, 14)),
                tau=draw(st.integers(1, 3)), P=draw(st.integers(1, 3)),
                dim=draw(st.integers(1, 12)), nu=draw(st.sampled_from((0.0, 0.1, 1.0))),
                root_seed=draw(SEEDS), sampling_seed=draw(SEEDS), task_seed=draw(SEEDS),
                quantize_wire=draw(st.booleans()),
                algorithm=draw(st.sampled_from(("hiso", "decomfl"))))


def build(M, m, R, tau, P, dim, nu, root_seed, sampling_seed, task_seed, quantize_wire,
          algorithm):
    config = RoundConfig(num_clients=M, sampled_per_round=m, rounds=R, eta=0.02, tau=tau,
                         perturbations=P, mu=1e-4, nu=nu, root_seed=root_seed,
                         sampling_seed=sampling_seed, algorithm=algorithm,
                         quantize_wire=quantize_wire)
    task = QuadraticTask.build(dim=dim, num_clients=M, seed=task_seed, spectrum_variance=1.0,
                               offset_scale=0.3, x0_scale=0.5)
    return config, task


# the cases the gates must cover whatever the generator draws: the 32-bit
# wire, decomfl, m = 1 and m = M
FIXED = dict(M=6, m=1, R=12, tau=2, P=2, dim=7, nu=0.1, root_seed=3, sampling_seed=5,
             task_seed=9, quantize_wire=True, algorithm="hiso")
COVERED = [FIXED, dict(FIXED, m=6, quantize_wire=False), dict(FIXED, m=3, algorithm="decomfl")]


def cover(test):
    for params in COVERED:
        test = example(params=params)(test)
    return test


@settings(max_examples=150)
@cover
@given(params=runs())
def test_rebuild_closure_over_absence_patterns(params):
    # the replica each draw is handed equals the client's own lineage: a fresh
    # (x0, identity) start, rebuilt at each of its draws over the rounds since
    # its previous one
    config, task = build(**params)
    taken = []
    update = fedsim.client_local_update

    def recorded(client, r, config, task, provider, start=None):
        taken.append((r, client))
        return update(client, r, config, task, provider, start)

    fedsim.client_local_update = recorded
    try:
        ledger = run_training(config, task).server.ledger
    finally:
        fedsim.client_local_update = update
    assert len(taken) == config.rounds * config.sampled_per_round
    provider = DirectionProvider(config.schedule(), task.dim)
    lineage = {}
    for r, handed in taken:
        fresh = ClientState(id=handed.id, model=task.x0.copy(),
                            hessian=config.initial_hessian(task.dim))
        prev = lineage.get(handed.id, fresh)
        missed = fetch_since(ledger, prev.last_round)[: r - prev.last_round]
        own = lineage[handed.id] = client_rebuild(prev, missed, config.eta, provider)
        assert handed.last_round == own.last_round == r
        assert handed.model.tobytes() == own.model.tobytes()
        assert handed.hessian.diag.tobytes() == own.hessian.diag.tobytes()


@settings(max_examples=150)
@cover
@given(params=runs())
def test_replay_equals_direct(params):
    config, task = build(**params)
    replay = run_training(config, task, keep_models=True)
    direct = run_training(config, task, keep_models=True, transport="direct")
    assert [m.tobytes() for m in replay.models] == [m.tobytes() for m in direct.models]
    assert replay.server.hessian.diag.tobytes() == direct.server.hessian.diag.tobytes()
    assert serialize(replay.server.ledger) == serialize(direct.server.ledger)
    assert replay.server.meter == direct.server.meter
    untimed = lambda trace: [dict(rec, wall_time_s=None) for rec in trace]
    assert untimed(replay.trace) == untimed(direct.trace)


@settings(max_examples=100)
@cover
@given(params=runs())
def test_decomfl_equals_nu_zero(params):
    # the baseline protocol is this one with the curvature EMA switched off:
    # "decomfl" at the drawn nu runs bit for bit as "hiso" at nu = 0
    config, task = build(**dict(params, algorithm="decomfl"))
    baseline, _ = build(**dict(params, nu=0.0, algorithm="hiso"))
    flag = run_training(config, task, keep_models=True)
    hiso0 = run_training(baseline, task, keep_models=True)
    assert [m.tobytes() for m in flag.models] == [m.tobytes() for m in hiso0.models]
    assert flag.server.hessian.diag.tobytes() == hiso0.server.hessian.diag.tobytes()
    assert serialize(flag.server.ledger) == serialize(hiso0.server.ledger)
    assert flag.losses().tobytes() == hiso0.losses().tobytes()
