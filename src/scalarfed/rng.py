"""Deterministic, replayable random streams.

Everything the protocol transmits is reconstructed from seeds, so every random
quantity in the simulator must be a pure function of a 64-bit seed: the same
seed yields bitwise-identical output on the server, on every client, in every
process, forever. Two fixed, documented primitives guarantee that:

* the bit source is Philox-4x64-10 keyed directly by the seed (a published
  counter-based generator: stateless, splittable, and replayable out of order,
  which is what ledger replay of arbitrary historical rounds requires);
* standard normals come from an explicit Box-Muller transform of 53-bit
  uniforms taken from the raw counter stream, never from a library's normal
  sampler whose internals may drift between releases.

Philox being counter-based, any stretch of a stream can be drawn on its own,
so a block of Gaussian rows is drawn in chunks on up to as many threads as
the process has CPUs to run on; the chunking and the thread count move no
bit.

Seeds for the (round, step, perturbation) grid and for the independent client
sampling / batch streams are derived from a shared root via splitmix64
chaining with per-purpose domain constants.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, SeedCollisionError

_MASK64 = (1 << 64) - 1

# Domain constants separating unrelated streams derived from one root seed.
DOMAIN_PERTURBATION = 0x9E3779B97F4A7C15
DOMAIN_SAMPLING = 0xC2B2AE3D27D4EB4F
DOMAIN_BATCH = 0x165667B19E3779F9
DOMAIN_TASK = 0x27D4EB2F165667C5


def splitmix64(x):
    """One splitmix64 finalizer step (bijective on 64-bit integers).

    Takes a Python int or a uint64 array (array arithmetic wraps, which is
    the masking); never a numpy scalar, whose overflow warns.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix(*parts):
    """Fold integers into one well-mixed 64-bit seed.

    Pure and order-sensitive: mix(a, b) != mix(b, a) in general. Offsetting
    each part by 1 keeps zero-valued indices from collapsing into the chain.
    Parts may be Python ints or broadcastable uint64 arrays; array parts give
    the seeds of every cell at once, equal to the scalar fold cell by cell.
    """
    h = 0
    for p in parts:
        h = splitmix64(h ^ ((p + 1) & _MASK64))
    return h


# Constructing a Philox draws OS entropy that `key=` then discards, a fixed
# cost larger than a short stream: each thread keeps one and re-keys it.
_LOCAL = threading.local()
_ZERO4 = (0, 0, 0, 0)
_SHIFT = np.uint64(11)

# Pairs per chunk of a Gaussian block: a chunk's scratch stays in cache, and
# a block of one chunk (every d <= 2 * _CHUNK_PAIRS row) never leaves the
# calling thread.
_CHUNK_PAIRS = 8192

_POOL_LOCK = threading.Lock()
_POOL = None  # (helper executor or None, its threads), made at the first multi-chunk block


def _philox(seed: int, block: int) -> np.random.Philox:
    """This thread's Philox, keyed by seed, about to emit the words of
    counter block `block` (4 words a block, counting from the stream start)."""
    gen = getattr(_LOCAL, "philox", None)
    if gen is None:
        gen = _LOCAL.philox = np.random.Philox(key=0)
    gen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (block, 0, 0, 0), "key": (seed & _MASK64, 0)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def raw_uint64(seed: int, n: int) -> np.ndarray:
    """First n words of the Philox-4x64-10 counter stream keyed by seed.

    A stream is fixed by (key, counter = 0), and the calling thread's
    generator, output buffer included, is reset to that before each draw: the
    words are a pure function of (seed, n), those of a fresh
    `np.random.Philox(key=seed)`, whichever thread draws them.
    """
    return _philox(seed, 0).random_raw(n)


def _fill_chunk(out: np.ndarray, seeds, start: int, stop: int) -> None:
    """Pairs [start, stop) of the block out, counted row-major over its rows.

    Pair j of a row takes words 2j and 2j + 1 of its seed's stream, and the
    row's last sine is dropped where dim is odd. Each row's words come from
    its own stream, keyed at their counter block; one transform then serves
    them all. Its operations are elementwise, so every coordinate has the
    bits of any other split of the same streams.
    """
    dim = out.shape[1]
    pairs = (dim + 1) // 2
    spans = [(row, max(start - row * pairs, 0), min(stop - row * pairs, pairs))
             for row in range(start // pairs, (stop - 1) // pairs + 1)]
    words = []
    for row, j0, j1 in spans:
        skip = (2 * j0) % 4
        words.append(_philox(seeds[row], (2 * j0) // 4).random_raw(skip + 2 * (j1 - j0))[skip:])
    raw = np.concatenate(words) if len(words) > 1 else words[0]
    del words
    raw >>= _SHIFT
    # u1 in (0, 1] (shifted to keep log finite), u2 in [0, 1)
    radius = raw[0::2].astype(np.float64)
    radius += 1.0
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    theta = raw[1::2].astype(np.float64)
    # 2 pi * 2**-53 is exact, so this rounds once, as (u2 * 2**-53) * (2 pi) does
    theta *= 2.0 * np.pi * 2.0**-53
    cos = np.cos(theta, out=raw.view(np.float64)[:theta.size])  # the words are spent
    sin = np.sin(theta, out=theta)
    if dim % 2 == 0:  # the chunk's coordinates are one contiguous run of out
        dests = [(out.reshape(-1)[2 * start:2 * stop], 0, stop - start)]
    else:  # each row drops its last sine
        dests, at = [], 0
        for row, j0, j1 in spans:
            dests.append((out[row, 2 * j0:min(2 * j1, dim)], at, at + j1 - j0))
            at += j1 - j0
    for dest, a, b in dests:
        np.multiply(radius[a:b], cos[a:b], out=dest[0::2])
        odd = dest[1::2]
        np.multiply(radius[a:a + odd.size], sin[a:a + odd.size], out=odd)


def _helpers():
    """(executor, threads): the threads that help the caller draw chunks, one
    per CPU the process may run on bar the caller's own. (None, 0), and
    nothing imported, where that is a single CPU."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
                else os.cpu_count() or 1
            executor = None
            if cpus > 1:
                from concurrent.futures import ThreadPoolExecutor
                executor = ThreadPoolExecutor(cpus - 1, thread_name_prefix="scalarfed-rng")
            _POOL = (executor, cpus - 1)
        return _POOL


def _forget_pool():
    # a forked child has none of its parent's worker threads
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def gaussian_rows(seeds, dim: int) -> np.ndarray:
    """(n, dim) standard normals whose row i is gaussian_vector(seeds[i], dim).

    `seeds` is a sequence of n ints or a 1-D uint64 array. The block's pairs,
    counted row-major, are cut into chunks of _CHUNK_PAIRS; Philox is
    counter-based, so each chunk keys its own generator at its first word. A
    block of one chunk is drawn in the calling thread. A larger one is drawn
    by the caller and the helper threads together, one thread per CPU the
    process may run on, each taking the next chunk until none is left
    (numpy's transcendentals release the GIL). Every chunk runs the same
    operations, so the bits depend neither on the chunking nor on the number
    of threads.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    seeds = [int(s) for s in seeds]
    out = np.empty((len(seeds), dim))
    total = len(seeds) * ((dim + 1) // 2)
    starts = iter(range(0, total, _CHUNK_PAIRS))
    taking = threading.Lock()

    def drain():
        while True:
            with taking:
                start = next(starts, None)
            if start is None:
                return
            _fill_chunk(out, seeds, start, min(start + _CHUNK_PAIRS, total))

    executor, threads = _helpers() if total > _CHUNK_PAIRS else (None, 0)
    helpers = [executor.submit(drain) for _ in range(threads)]
    try:
        drain()
    finally:
        for helper in helpers:
            if not helper.cancel():  # one not yet started has nothing left to take
                helper.result()
    return out


def gaussian_vector(seed: int, dim: int) -> np.ndarray:
    """Standard normal vector of length dim, a pure function of (seed, dim).

    Box-Muller over 53-bit uniforms: u1 in (0, 1] (shifted to keep log finite),
    u2 in [0, 1). Pairs are written interleaved so that the first k entries of
    gaussian_vector(s, n) and gaussian_vector(s, k) agree for even k. The
    one-row case of gaussian_rows: a long vector is drawn on up to as many
    threads as the process has CPUs, and its bits do not depend on that count.
    """
    return gaussian_rows((seed,), dim)[0]


def uniform_indices(seed: int, n: int, upper: int) -> np.ndarray:
    """n indices uniform on [0, upper) via 64-bit modulo (bias ~ upper/2^64)."""
    if upper < 1:
        raise InvalidDimensionError(f"upper must be >= 1, got {upper}")
    return (raw_uint64(seed, n) % np.uint64(upper)).astype(np.int64)


def sample_without_replacement(seed: int, population: int, k: int) -> np.ndarray:
    """k distinct indices from range(population), uniform, ascending order.

    Partial Fisher-Yates driven by the raw counter stream; deterministic given
    (seed, population, k).
    """
    if not 1 <= k <= population:
        raise InvalidDimensionError(f"need 1 <= k <= population, got k={k}, population={population}")
    raw = raw_uint64(seed, k)
    idx = np.arange(population)
    for j in range(k):
        t = j + int(raw[j] % np.uint64(population - j))
        idx[j], idx[t] = idx[t], idx[j]
    chosen = idx[:k]
    chosen.sort()
    return chosen


@dataclass(frozen=True)
class SeedSchedule:
    """Derivation of per-(round, step, perturbation) seeds from a shared root.

    Both endpoints hold the root, so perturbation seeds cost nothing on the
    wire; a schedule also guarantees the server and a rebuilding client ask
    for exactly the same streams.
    """

    root: int

    def perturbation_seed(self, r: int, k: int, p: int) -> int:
        return mix(self.root, DOMAIN_PERTURBATION, r, k, p)

    def sampling_seed(self, r: int) -> int:
        return mix(self.root, DOMAIN_SAMPLING, r)

    def batch_seed(self, client: int, r: int, k: int) -> int:
        return mix(self.root, DOMAIN_BATCH, client, r, k)

    def validate_grid(self, rounds: int, tau: int, perturbations: int) -> None:
        """Configuration-time injectivity check over the declared run grid.

        All R x tau x P seeds come from one array call of perturbation_seed;
        a collision names the first repeated cell in round-major order.
        """
        shape = (rounds, tau, perturbations)
        r = np.arange(rounds, dtype=np.uint64)[:, None, None]
        k = np.arange(tau, dtype=np.uint64)[:, None]
        p = np.arange(perturbations, dtype=np.uint64)
        seeds = np.broadcast_to(self.perturbation_seed(r, k, p), shape).ravel()
        if np.unique(seeds).size == seeds.size:
            return
        repeated = np.ones(seeds.size, dtype=bool)
        repeated[np.unique(seeds, return_index=True)[1]] = False
        r, k, p = (int(i) for i in np.unravel_index(np.flatnonzero(repeated)[0], shape))
        raise SeedCollisionError(f"seed collision at (round={r}, step={k}, perturbation={p})")
