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

Seeds for the (round, step, perturbation) grid and for the independent client
sampling / batch streams are derived from a shared root via splitmix64
chaining with per-purpose domain constants.
"""

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
# cost larger than a short stream: every stream re-keys this one instead.
_PHILOX = np.random.Philox(key=0)
_ZERO4 = (0, 0, 0, 0)


def raw_uint64(seed: int, n: int) -> np.ndarray:
    """First n words of the Philox-4x64-10 counter stream keyed by seed.

    A stream is fixed by (key, counter = 0), and the shared generator's whole
    state, output buffer included, is reset to that before each draw: the
    words are a pure function of (seed, n), those of a fresh
    `np.random.Philox(key=seed)`. Sharing it makes the library single-threaded.
    """
    _PHILOX.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": (seed & _MASK64, 0)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return _PHILOX.random_raw(n)


def gaussian_vector(seed: int, dim: int) -> np.ndarray:
    """Standard normal vector of length dim, a pure function of (seed, dim).

    Box-Muller over 53-bit uniforms: u1 in (0, 1] (shifted to keep log finite),
    u2 in [0, 1). Pairs are written interleaved so that the first k entries of
    gaussian_vector(s, n) and gaussian_vector(s, k) agree for even k.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    n_pairs = (dim + 1) // 2
    raw = raw_uint64(seed, 2 * n_pairs)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.empty(2 * n_pairs)
    z[0::2] = radius * np.cos(theta)
    z[1::2] = radius * np.sin(theta)
    return z[:dim]


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
