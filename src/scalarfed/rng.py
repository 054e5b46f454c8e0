"""Deterministic, replayable random streams.

Everything the protocol transmits is reconstructed from seeds, so every random
quantity in the simulator must be a pure function of a 64-bit seed: the same
seed yields bitwise-identical output on the server, on every client, in every
process, forever. Two fixed, documented primitives guarantee that:

* the bit source is Philox-4x64-10 keyed directly by the seed (a published
  counter-based generator: stateless, splittable, and replayable out of order,
  which is what ledger replay of arbitrary historical rounds requires);
* standard normals come from an explicit Box-Muller transform of the 53-bit
  uniforms (word >> 11) * 2**-53 of the raw counter stream, never from a
  library's normal sampler whose internals may drift between releases. The
  uniforms are the bit generator's own exact word-to-double step, which
  numpy's Generator.random writes in place; the tests pin them to the words.

Philox being counter-based, any stretch of a stream can be drawn on its own,
so a block of Gaussian rows is drawn in chunks on up to as many threads as
the process has CPUs to run on; the chunking and the thread count move no
bit. A draw is split in two: start_rows hands the chunks to the helper
threads, and finish has the caller take what is left, so a block can be
drawn while the caller does other work. The block is laid out as whole
pairs: columns 2j and 2j + 1 of a row are the cosine and sine of its pair j,
in a buffer padded to an even width, so every chunk is one contiguous write.

Seeds for the (round, step, perturbation) grid and for the independent client
sampling / batch streams are derived from a shared root via splitmix64
chaining with per-purpose domain constants.
"""

import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDimensionError, SeedCollisionError

_MASK64 = (1 << 64) - 1

# Domain constants separating unrelated streams derived from one root seed.
DOMAIN_PERTURBATION = 0x9E3779B97F4A7C15
DOMAIN_SAMPLING = 0xC2B2AE3D27D4EB4F
DOMAIN_BATCH = 0x165667B19E3779F9
DOMAIN_TASK = 0x27D4EB2F165667C5


# splitmix64's constants and shifts as uint64 scalars, for the array path:
# a Python-int operand costs every array operation a conversion, and the
# masks are no-ops on wrapping uint64 arithmetic. It serves validate_grid's
# perturbation_seed grid and QuadraticTask.build's center seeds; a round's own
# seeds are Python ints (SeedSchedule.round_seeds).
_SPLITMIX_U64 = tuple(np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                              0x94D049BB133111EB, 30, 27, 31))
_ONE_U64 = np.uint64(1)


def splitmix64(x):
    """One splitmix64 finalizer step (bijective on 64-bit integers).

    Takes a Python int or a uint64 array (array arithmetic wraps, which is
    the masking, so an array is stepped in place on one copy); never a numpy
    scalar, whose overflow warns.
    """
    if isinstance(x, np.ndarray):
        add, mul1, mul2, s30, s27, s31 = _SPLITMIX_U64
        x = x + add
        x ^= x >> s30
        x *= mul1
        x ^= x >> s27
        x *= mul2
        x ^= x >> s31
        return x
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix(*parts, chain: int = 0):
    """Fold integers into one well-mixed 64-bit seed.

    Pure and order-sensitive: mix(a, b) != mix(b, a) in general. Offsetting
    each part by 1 keeps zero-valued indices from collapsing into the chain.
    Parts may be Python ints or broadcastable uint64 arrays; array parts give
    the seeds of every cell at once, equal to the scalar fold cell by cell.
    `chain` continues a fold: mix(a, b, chain=mix(c)) == mix(c, a, b).
    """
    h = chain
    for p in parts:
        p = p + _ONE_U64 if isinstance(p, np.ndarray) else (p + 1) & _MASK64
        h = splitmix64(h ^ p)
    return h


# Constructing a Philox draws OS entropy that `key=` then discards, a fixed
# cost larger than a short stream: each thread keeps one and re-keys it.
_LOCAL = threading.local()
_ZERO4 = (0, 0, 0, 0)

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
        _LOCAL.uniform = np.random.Generator(gen)  # draws from gen's state
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


def _fill_chunk(out: np.ndarray, seeds, start: int, stop: int, scratch: np.ndarray) -> None:
    """Pairs [start, stop) of the padded block out, counted row-major: pair j
    of a row takes words 2j and 2j + 1 of its seed's stream and fills columns
    2j (cosine) and 2j + 1 (sine), so the chunk is one contiguous run of out.
    The words' uniforms are written into that run and transformed through
    `scratch`, three float64 rows of at least stop - start, so a chunk
    allocates nothing the size of its data. One elementwise transform serves
    every row's words, so each coordinate has the bits of any other split of
    the same streams."""
    pairs = out.shape[1] // 2
    dest = out.reshape(-1)[2 * start:2 * stop]
    at = 0
    for row in range(start // pairs, (stop - 1) // pairs + 1):
        j0, j1 = max(start - row * pairs, 0), min(stop - row * pairs, pairs)
        gen = _philox(seeds[row], (2 * j0) // 4)
        if j0 % 2:  # word 2 * j0 is the third of its counter block
            gen.random_raw(2)
        # the uniforms (word >> 11) * 2**-53, exact, of the next words
        _LOCAL.uniform.random(out=dest[at:at + 2 * (j1 - j0)])
        at += 2 * (j1 - j0)
    n = stop - start
    radius, theta, cos = scratch[0, :n], scratch[1, :n], scratch[2, :n]
    # u1 in (0, 1] (shifted to keep log finite; the sum is exact), u2 in [0, 1)
    np.add(dest[0::2], 2.0**-53, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.multiply(dest[1::2], 2.0 * np.pi, out=theta)
    np.cos(theta, out=cos)
    sin = np.sin(theta, out=theta)
    np.multiply(radius, cos, out=dest[0::2])  # the uniforms are spent
    np.multiply(radius, sin, out=dest[1::2])


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


class RowDraw:
    """A block of Gaussian rows being drawn, made by start_rows: the helper
    threads take its chunks from the start, and finish() lets the caller
    take what is left and returns the block."""

    def __init__(self, seeds, dim: int):
        self.seeds = [int(s) for s in seeds]
        self.dim = dim
        pairs = (dim + 1) // 2
        self.out = np.empty((len(self.seeds), 2 * pairs))
        self._total = len(self.seeds) * pairs
        self._starts = iter(range(0, self._total, _CHUNK_PAIRS))
        self._taking = threading.Lock()
        self._pid = os.getpid()
        executor, threads = _helpers() if self._total > _CHUNK_PAIRS else (None, 0)
        threads = min(threads, (self._total - 1) // _CHUNK_PAIRS)  # chunks bar one
        # one scratch slot per drawing thread, slot 0 the caller's, allocated
        # here so that a draw's memory does not depend on when threads run
        self._scratch = np.empty((threads + 1, 3, min(self._total, _CHUNK_PAIRS)))
        self._helpers = [executor.submit(self._drain, slot) for slot in range(1, threads + 1)]

    def _drain(self, slot: int):
        while True:
            with self._taking:
                start = next(self._starts, None)
            if start is None:
                return
            _fill_chunk(self.out, self.seeds, start, min(start + _CHUNK_PAIRS, self._total),
                        self._scratch[slot])

    def finish(self) -> np.ndarray:
        """The (n, dim) block, once the caller has drawn every chunk no
        helper took and the helpers are done. In a child forked meanwhile,
        which has none of the helper threads, the caller draws it anew."""
        if os.getpid() != self._pid:
            return start_rows(self.seeds, self.dim).finish()
        try:
            self._drain(0)
        finally:
            for helper in self._helpers:
                if not helper.cancel():  # one not yet started has nothing left to take
                    helper.result()
        # a cancelled helper's queued work item keeps this object, not its arrays
        out, self.out, self._scratch = self.out, None, None
        return out if self.dim % 2 == 0 else np.ascontiguousarray(out[:, :self.dim])


def start_rows(seeds, dim: int) -> RowDraw:
    """Start drawing the (n, dim) standard normals whose row i is
    gaussian_vector(seeds[i], dim); RowDraw.finish() returns them.

    `seeds` is a sequence of n ints or a 1-D uint64 array. Whole pairs are
    drawn into an (n, 2 * ceil(dim / 2)) buffer, returned as is for even dim
    and as a contiguous copy of its first dim columns for odd dim. The pairs,
    counted row-major, are cut into chunks of _CHUNK_PAIRS, each keying its
    own Philox at its first word. A block of more than one chunk is handed at
    once to one helper thread per CPU the process may run on bar the
    caller's, each taking the next chunk until none is left (numpy's
    transcendentals release the GIL), so it is drawn while the caller does
    other work; finish() has the caller take the chunks still left. A
    one-chunk block, or any block in a single-CPU process, is drawn by the
    caller in finish(). Every chunk runs the same operations, so the bits
    depend neither on the chunking nor on the number of threads.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    return RowDraw(seeds, dim)


def gaussian_rows(seeds, dim: int) -> np.ndarray:
    """(n, dim) standard normals whose row i is gaussian_vector(seeds[i], dim):
    start_rows(seeds, dim).finish(), drawn by the caller and the helpers."""
    return start_rows(seeds, dim).finish()


def gaussian_vector(seed: int, dim: int) -> np.ndarray:
    """Standard normal vector of length dim, a pure function of (seed, dim),
    and the one-row case of gaussian_rows. Box-Muller over 53-bit uniforms,
    u1 in (0, 1] (shifted to keep log finite) and u2 in [0, 1), with pairs
    interleaved, so the first k entries of gaussian_vector(s, n) and
    gaussian_vector(s, k) agree for even k. A long vector is drawn on up to
    as many threads as the process has CPUs; its bits do not depend on that
    count."""
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

    @cached_property
    def _perturbation_chain(self) -> int:
        # mix(root, DOMAIN_PERTURBATION), the prefix of every perturbation seed
        return mix(self.root, DOMAIN_PERTURBATION)

    def perturbation_seed(self, r: int, k: int, p: int) -> int:
        """mix(root, DOMAIN_PERTURBATION, r, k, p), ints or arrays."""
        return mix(r, k, p, chain=self._perturbation_chain)

    def round_seeds(self, r: int, tau: int, perturbations: int) -> list:
        """perturbation_seed(r, k, p) for every (k, p) of round r, row-major,
        as Python ints: the chain steps through r once and each k once, so a
        seed costs one splitmix64 step and no array call's fixed cost."""
        h = mix(r, chain=self._perturbation_chain)
        return [splitmix64(hk ^ (p + 1)) for hk in (mix(k, chain=h) for k in range(tau))
                for p in range(perturbations)]

    def sampling_seed(self, r: int) -> int:
        return mix(self.root, DOMAIN_SAMPLING, r)

    def batch_seed(self, client: int, r: int, k: int) -> int:
        return mix(self.root, DOMAIN_BATCH, client, r, k)

    def validate_grid(self, rounds: int, tau: int, perturbations: int) -> None:
        """Configuration-time injectivity check over the declared run grid.

        All R x tau x P seeds come from one array perturbation_seed call; a
        collision names the first repeated cell in round-major order.
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
