import hashlib
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from scalarfed import SeedCollisionError, SeedSchedule, gaussian_vector, mix, rng
from scalarfed.errors import InvalidDimensionError
from scalarfed.rng import (DOMAIN_PERTURBATION, gaussian_rows, raw_uint64,
                           sample_without_replacement, uniform_indices)


def test_gaussian_determinism():
    a = gaussian_vector(42, 4)
    b = gaussian_vector(42, 4)
    assert np.array_equal(a, b)


def test_gaussian_distinct_seeds_differ():
    assert np.any(gaussian_vector(1, 3) != gaussian_vector(2, 3))


def test_gaussian_zero_dim_rejected():
    with pytest.raises(InvalidDimensionError):
        gaussian_vector(42, 0)


def test_gaussian_moments_golden():
    # frozen regression values for the fixed (seed, dim), plus the moment bands
    v = gaussian_vector(42, 100000)
    assert v.mean() == pytest.approx(-0.002019130808971546, abs=1e-15)
    assert v.var() == pytest.approx(0.9960136504632252, abs=1e-12)
    assert -0.02 <= v.mean() <= 0.02
    assert 0.97 <= v.var() <= 1.03


def test_gaussian_moments_property():
    # replay + moment property across several seeds at dim 1e5
    for seed in (0, 1, 9, 123456789, 2**63):
        v = gaussian_vector(seed, 100000)
        w = gaussian_vector(seed, 100000)
        assert np.array_equal(v, w)
        assert abs(v.mean()) <= 0.02
        assert abs(v.var() - 1.0) <= 0.03


def test_gaussian_prefix_consistency():
    # shorter requests are prefixes of longer ones (even lengths)
    long = gaussian_vector(5, 64)
    short = gaussian_vector(5, 16)
    assert np.array_equal(long[:16], short)


def test_raw_stream_is_philox():
    # pure function of the seed, independent generators agree bitwise
    assert np.array_equal(raw_uint64(907, 8), raw_uint64(907, 8))
    assert raw_uint64(907, 8).dtype == np.uint64


def test_derive_seed_pure_and_injective_on_pairs():
    sched = SeedSchedule(root=99)
    assert sched.perturbation_seed(0, 0, 0) == sched.perturbation_seed(0, 0, 0)
    assert sched.perturbation_seed(0, 0, 0) != sched.perturbation_seed(0, 0, 1)
    assert sched.perturbation_seed(1, 0, 0) != sched.perturbation_seed(0, 1, 0)


def test_grid_seeds_distinct():
    sched = SeedSchedule(root=4)
    seeds = {
        sched.perturbation_seed(r, k, p)
        for r in range(10) for k in range(3) for p in range(5)
    }
    assert len(seeds) == 150
    sched.validate_grid(10, 3, 5)  # must not raise


def test_grid_collision_detected():
    class Clashing(SeedSchedule):
        def perturbation_seed(self, r, k, p):
            return 1  # degenerate schedule

    with pytest.raises(SeedCollisionError):
        Clashing(root=0).validate_grid(2, 1, 1)


@pytest.mark.parametrize("seed_of, shape", [
    (lambda r, k, p: 1, (2, 1, 1)),
    (lambda r, k, p: 1, (4, 3, 2)),
    (lambda r, k, p: (r * 6 + k * 2 + p) % 11, (4, 3, 2)),
], ids=["constant-rounds", "constant-grid", "folding"])
def test_grid_collision_names_first_repeated_cell(seed_of, shape):
    class Degenerate(SeedSchedule):
        def perturbation_seed(self, r, k, p):
            return seed_of(r, k, p)

    # reference: the first cell, in round-major loop order, whose seed repeats
    seen = set()
    for first in np.ndindex(shape):
        if seed_of(*first) in seen:
            break
        seen.add(seed_of(*first))
    with pytest.raises(SeedCollisionError) as err:
        Degenerate(root=0).validate_grid(*shape)
    assert str(err.value) == "seed collision at (round={}, step={}, perturbation={})".format(*first)


@pytest.mark.parametrize("root", [0, 2**64 - 1])
def test_array_perturbation_seeds_equal_scalar_seeds(root):
    sched = SeedSchedule(root=root)
    r = np.arange(4, dtype=np.uint64)[:, None, None]
    k = np.arange(3, dtype=np.uint64)[:, None]
    p = np.arange(5, dtype=np.uint64)
    grid = sched.perturbation_seed(r, k, p)
    assert grid.shape == (4, 3, 5) and grid.dtype == np.uint64
    for cell in np.ndindex(grid.shape):
        assert int(grid[cell]) == sched.perturbation_seed(*cell)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 2), (3, 11)])
@pytest.mark.parametrize("root, r", [(0, 0), (2**64 - 1, 9), (41, 2**40)])
def test_provider_round_seeds_equal_the_scalar_loop(root, r, shape):
    # the int chain continues the schedule's cached prefix
    sched = SeedSchedule(root=root)
    assert sched.round_seeds(r, *shape) == [mix(root, DOMAIN_PERTURBATION, r, k, p)
                                           for k in range(shape[0]) for p in range(shape[1])]


def test_raw_stream_equals_fresh_philox_across_interleaved_calls():
    # the shared generator is re-keyed per call: leftover buffer state from a
    # draw of any length must not reach the next stream
    for seed in (0, 1, 907, 2**63, 2**64 - 1):
        for n in range(1, 10):
            assert np.array_equal(raw_uint64(seed, n), np.random.Philox(key=seed).random_raw(n))
    assert np.array_equal(raw_uint64(-1, 3), np.random.Philox(key=2**64 - 1).random_raw(3))


@pytest.mark.parametrize("seed, dim, digest", [
    (0, 1, "ddd0c06506931f7932f64e47b7ca08546ab861b6a04d0a68cd5791d0359f57d3"),
    (1, 7, "908556a2a9aad1cf62c929eadc6279b14a1045f334ad217280b3e64d6081fb14"),
    (2**63, 33, "eb8ce68c3d6bc327f2be082cef6175f38a5cba4879cea148ef90ac2df4070702"),
    (2**64 - 1, 200, "480c1a05dc37239179051c4908b15d10c437a15bef47b29ff4eb7148f35c5095"),
    (123456789, 1001, "47a0e6aa6bc4891dff5dcc3e6cf375528b4cf5ef936c993964d130e724e57a5f"),
    # several chunks: an odd dim whose last chunk ends on a dropped sine, and
    # one vector of the large-d workload
    (31337, 200001, "32eb6e337c2765025096072c3cf4c93eba521a0b93ce79ab208502fbf6f0c599"),
    (42, 100000, "e011fb2dee8f7171231de00c0f324bdf7ee1adfddd4f0b57cbb2c21eee2f0be0"),
])
def test_gaussian_vector_pinned_bytes(seed, dim, digest):
    v = gaussian_vector(seed, dim)
    assert v.shape == (dim,)
    assert hashlib.sha256(v.astype("<f8").tobytes()).hexdigest() == digest


def reference_gaussian(seed, dim):
    """Box-Muller over a fresh Philox's whole stream in one array pass."""
    n_pairs = (dim + 1) // 2
    raw = np.random.Philox(key=seed).random_raw(2 * n_pairs)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.empty(2 * n_pairs)
    z[0::2] = radius * np.cos(theta)
    z[1::2] = radius * np.sin(theta)
    return z[:dim]


BLOCK_SEEDS = [0, 1, 2**63, 2**64 - 1, 123456789, 5, 6, 7, 8]
BLOCK_DIMS = [1, 2, 3, 7, 33, 200, 1001]


def test_gaussian_rows_chunks_mid_block_and_across_rows(monkeypatch):
    # rows drawn one at a time in one chunk are the reference; with 3-pair
    # chunks a chunk starts mid Philox block (every other one) and straddles
    # rows, with helper threads and in the calling thread alone
    single = {(seed, dim): gaussian_vector(seed, dim).tobytes()
              for seed in BLOCK_SEEDS for dim in BLOCK_DIMS}
    for (seed, dim), got in single.items():
        assert got == reference_gaussian(seed, dim).tobytes()
    monkeypatch.setattr(rng, "_CHUNK_PAIRS", 3)
    for pool in ("pool", "inline"):
        if pool == "inline":
            monkeypatch.setattr(rng, "_POOL", (None, 0))
        for dim in BLOCK_DIMS:
            for n in range(1, 10):
                block = gaussian_rows(BLOCK_SEEDS[:n], dim)
                assert block.shape == (n, dim) and block.flags.c_contiguous
                for seed, row in zip(BLOCK_SEEDS, block):
                    assert row.tobytes() == single[seed, dim], (pool, dim, n, seed)


def test_concurrent_blocks_match_serial_draws(monkeypatch):
    # two threads drawing different blocks at once, through the shared pool
    # (3-pair chunks) and through their own generators (one-chunk blocks and
    # raw streams), get the bytes of serial draws
    monkeypatch.setattr(rng, "_CHUNK_PAIRS", 3)
    jobs = [[(BLOCK_SEEDS[:4], 201), (BLOCK_SEEDS[4:], 1), (BLOCK_SEEDS[2:5], 33)],
            [(BLOCK_SEEDS[5:], 101), (BLOCK_SEEDS[:2], 2), (BLOCK_SEEDS[1:6], 7)]]
    serial = [[gaussian_rows(seeds, dim).tobytes() for seeds, dim in job] for job in jobs]
    raw = [raw_uint64(seed, 9).tobytes() for seed in BLOCK_SEEDS]
    start, mismatches = threading.Barrier(2), []

    def draw(which):
        start.wait(timeout=10)
        for _ in range(30):
            for (seeds, dim), want in zip(jobs[which], serial[which]):
                if gaussian_rows(seeds, dim).tobytes() != want:
                    mismatches.append((which, dim))
            for seed, want in zip(BLOCK_SEEDS, raw):
                if raw_uint64(seed, 9).tobytes() != want:
                    mismatches.append((which, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_started_draw_finishes_with_the_bits_of_one_call(monkeypatch):
    # helpers take chunks from the start; finish has the caller take the rest
    # and wait; the bits are those of gaussian_rows, with the pool or without,
    # and a draw left unfinished leaves the next one untouched
    monkeypatch.setattr(rng, "_CHUNK_PAIRS", 3)
    want = {dim: gaussian_rows(BLOCK_SEEDS, dim).tobytes() for dim in (33, 200)}
    for pool in ("pool", "inline"):
        if pool == "inline":
            monkeypatch.setattr(rng, "_POOL", (None, 0))
        rng.start_rows(BLOCK_SEEDS[::-1], 1001)  # dropped: runs out on the helpers
        draws = {dim: rng.start_rows(BLOCK_SEEDS, dim) for dim in (33, 200)}
        for dim, draw in draws.items():
            block = draw.finish()
            assert block.shape == (len(BLOCK_SEEDS), dim) and block.tobytes() == want[dim], pool


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_finishes_a_draw_started_before_the_fork(monkeypatch):
    # the child holds the parent's draw but none of the helpers working on it:
    # its finish must draw the block itself, not wait on threads that do not exist
    monkeypatch.setattr(rng, "_CHUNK_PAIRS", 3)
    want = gaussian_rows(BLOCK_SEEDS, 8001).tobytes()
    draw = rng.start_rows(BLOCK_SEEDS, 8001)  # 12003 chunks, with the helpers
    time.sleep(0.01)  # a helper is mid-draw at the fork
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        signal.alarm(30)
        os._exit(0 if draw.finish().tobytes() == want else 1)
    assert draw.finish().tobytes() == want
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_without_the_parent_pool(monkeypatch):
    # the child inherits the parent's pool object but none of its threads; it
    # must make its own rather than wait on workers that do not exist
    monkeypatch.setattr(rng, "_CHUNK_PAIRS", 3)
    want = gaussian_rows(BLOCK_SEEDS, 33).tobytes()  # the parent's pool is live
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        signal.alarm(30)
        os._exit(0 if gaussian_rows(BLOCK_SEEDS, 33).tobytes() == want else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_streams_domain_separated():
    sched = SeedSchedule(root=11)
    assert sched.perturbation_seed(0, 0, 0) != sched.sampling_seed(0)
    assert sched.sampling_seed(0) != sched.batch_seed(0, 0, 0)


def test_mix_order_sensitive():
    assert mix(1, 2) != mix(2, 1)


def test_sample_without_replacement_contract():
    got = sample_without_replacement(3, 10, 4)
    assert len(set(got.tolist())) == 4
    assert np.all(np.diff(got) > 0)
    assert np.array_equal(got, sample_without_replacement(3, 10, 4))
    full = sample_without_replacement(8, 5, 5)
    assert np.array_equal(full, np.arange(5))
    with pytest.raises(InvalidDimensionError):
        sample_without_replacement(8, 5, 6)


def test_uniform_indices_range():
    idx = uniform_indices(17, 1000, 7)
    assert idx.min() >= 0 and idx.max() < 7
    assert np.array_equal(idx, uniform_indices(17, 1000, 7))
