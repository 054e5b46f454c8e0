"""The scalar-only wire: round logs, participation tracking, byte metering.

A RoundLog is the only thing that ever crosses the client-server boundary:
one (tau x P) matrix of aggregated gradient scalars per round (seeds are
derived from the shared root and cost nothing unless configured otherwise).
The Ledger accumulates logs plus each client's last participation round;
together with the root seed it fully determines the server model at any
round, which the simulator's vector oracle verifies bitwise.
"""

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (LedgerFormatError, LedgerRangeError, ProtocolOrderError, check_range,
                     check_type)

_MAGIC = b"SFLG"
_VERSION = 1


@dataclass(frozen=True)
class RoundLog:
    """Aggregated gradient scalars for one round, shaped (tau, P)."""

    round: int
    scalars: np.ndarray

    def __post_init__(self):
        scalars = np.asarray(self.scalars, dtype=np.float64)
        if scalars.ndim != 2:
            raise ProtocolOrderError(f"scalars must be (tau, P), got shape {scalars.shape}")
        if not np.all(np.isfinite(scalars)):
            raise ProtocolOrderError(f"round {self.round} log contains non-finite scalars")
        object.__setattr__(self, "scalars", scalars)

    def __eq__(self, other):
        return (
            isinstance(other, RoundLog)
            and self.round == other.round
            and np.array_equal(self.scalars, other.scalars)
        )


@dataclass(frozen=True)
class Ledger:
    """Gap-free history of round logs plus per-client last participation."""

    num_clients: int
    logs: tuple = ()
    last_participation: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.last_participation:
            object.__setattr__(
                self, "last_participation", {i: 0 for i in range(self.num_clients)}
            )

    @property
    def current_round(self) -> int:
        return len(self.logs)


def record_round(ledger: Ledger, log: RoundLog, participants) -> Ledger:
    """Append the next round's log and mark the participants.

    A client's recorded round means "this client's model equals the global
    model at the START of that round": participating clients reset to their
    round-start model, so on their next appearance they must replay from
    this round inclusive.
    """
    if log.round != ledger.current_round:
        raise ProtocolOrderError(
            f"expected round {ledger.current_round}, got {log.round} (no gaps allowed)"
        )
    last = dict(ledger.last_participation)
    for cid in participants:
        if cid not in last:
            raise ProtocolOrderError(f"unknown client id {cid}")
        last[int(cid)] = log.round
    return replace(ledger, logs=ledger.logs + (log,), last_participation=last)


def fetch_since(ledger: Ledger, r_last: int):
    """All logs with round in [r_last, current), ascending; the replay feed
    for a client whose model state is the global model at round r_last."""
    if not 0 <= r_last <= ledger.current_round:
        raise LedgerRangeError(
            f"r_last={r_last} outside [0, current round {ledger.current_round}]"
        )
    return list(ledger.logs[r_last:])


# --- binary serialization ----------------------------------------------------
#
# Fixed-width little-endian layout, atomic parse (truncation yields an error,
# never a partial ledger):
#   header: magic(4s) version(u16) pad(u16) tau(u16) P(u16) root_seed(u64) M(u32)
#   participation: M x u64
#   rounds: count(u64), then per round: round(u64) followed by tau*P f64
#           scalars. Per-round participants are not stored; participation is
#           held in the aggregate map above.

_HEADER = struct.Struct("<4sHHHHQI")


def serialize(ledger: Ledger, root_seed: int = 0) -> bytes:
    tau, P = ledger.logs[0].scalars.shape if ledger.logs else (0, 0)
    out = [_HEADER.pack(_MAGIC, _VERSION, 0, tau, P, root_seed, ledger.num_clients)]
    for i in range(ledger.num_clients):
        out.append(struct.pack("<Q", ledger.last_participation[i]))
    out.append(struct.pack("<Q", len(ledger.logs)))
    for log in ledger.logs:
        out.append(struct.pack("<Q", log.round))
        out.append(log.scalars.astype("<f8").tobytes())
    return b"".join(out)


def deserialize(data: bytes) -> Ledger:
    offset = 0

    def take(n, what):
        nonlocal offset
        if offset + n > len(data):
            raise LedgerFormatError(f"truncated stream while reading {what}", offset)
        chunk = data[offset : offset + n]
        offset += n
        return chunk

    magic, version, pad, tau, P, _root, num_clients = _HEADER.unpack(
        take(_HEADER.size, "header")
    )
    if magic != _MAGIC:
        raise LedgerFormatError(f"bad magic {magic!r}", 0)
    if version != _VERSION:
        raise LedgerFormatError(f"unsupported version {version}", 4)
    if pad != 0:
        raise LedgerFormatError(f"non-zero pad {pad}", 6)

    last = {}
    for i in range(num_clients):
        (last[i],) = struct.unpack("<Q", take(8, f"participation[{i}]"))
    (n_rounds,) = struct.unpack("<Q", take(8, "round count"))
    # serialize writes (0, 0) for an empty ledger and the logs' shape otherwise
    if not (tau >= 1 and P >= 1 if n_rounds else tau == P == 0):
        raise LedgerFormatError(f"scalar shape ({tau}, {P}) with {n_rounds} rounds", 8)
    for i, t in last.items():
        if t >= max(n_rounds, 1):
            raise LedgerFormatError(
                f"client {i} last participated in round {t} of {n_rounds}",
                _HEADER.size + 8 * i)
    logs = []
    for r in range(n_rounds):
        (round_idx,) = struct.unpack("<Q", take(8, f"round {r} index"))
        raw = take(tau * P * 8, f"round {r} scalars")
        scalars = np.frombuffer(raw, dtype="<f8").reshape(tau, P).copy()
        try:
            logs.append(RoundLog(round=round_idx, scalars=scalars))
        except ProtocolOrderError as exc:
            raise LedgerFormatError(str(exc), offset) from exc
    if offset != len(data):
        raise LedgerFormatError("trailing bytes after ledger payload", offset)
    ledger = Ledger(num_clients=num_clients, logs=tuple(logs), last_participation=last)
    if [log.round for log in logs] != list(range(n_rounds)):
        raise LedgerFormatError("round indices are not gap-free", offset)
    return ledger


# --- communication metering ---------------------------------------------------


@dataclass(frozen=True)
class WireCostModel:
    """Bytes charged per transmitted quantity.

    Scalars travel as 32-bit floats (4 bytes) although computation is 64-bit;
    seeds cost nothing by default because both endpoints derive them from the
    shared root (set bytes_per_seed=8 for sensitivity accounting).
    """

    bytes_per_scalar: int = 4
    bytes_per_seed: int = 0

    def __post_init__(self):
        for name, annotation in WireCostModel.__annotations__.items():
            check_type(name, getattr(self, name), annotation)
        for name, least in (("bytes_per_scalar", 1), ("bytes_per_seed", 0)):
            check_range(name, getattr(self, name), getattr(self, name) >= least, f">= {least}")


@dataclass(frozen=True)
class CommMeter:
    """Monotone uplink/downlink byte counters for the whole federation."""

    cost: WireCostModel = field(default_factory=WireCostModel)
    uplink_bytes: int = 0
    downlink_bytes: int = 0


def meter_round(
    meter: CommMeter, m: int, tau: int, perturbations: int, missed_logs_per_client
) -> CommMeter:
    """Charge one executed round.

    Uplink: every sampled client sends its tau x P local scalars.
    Downlink: every sampled client pulls the aggregated scalars (and, under a
    nonzero seed cost, the seed grid) for each round it must replay; a client
    that was sampled in the previous round replays exactly one round.
    """
    per_step = tau * perturbations
    up = m * per_step * meter.cost.bytes_per_scalar
    down = sum(missed_logs_per_client) * per_step * (meter.cost.bytes_per_scalar
                                                     + meter.cost.bytes_per_seed)
    return replace(
        meter,
        uplink_bytes=meter.uplink_bytes + up,
        downlink_bytes=meter.downlink_bytes + down,
    )


def per_client_scalar_bytes(rounds: int, tau: int, perturbations: int,
                            cost: WireCostModel = WireCostModel()) -> int:
    """Total bytes one always-sampled client exchanges over a run.

    Per round the client uploads tau*P scalars and downloads the previous
    round's tau*P aggregated scalars; this is the per-client figure the
    published communication-cost tables use.
    """
    return rounds * tau * perturbations * (2 * cost.bytes_per_scalar + cost.bytes_per_seed)


def full_vector_bytes(dim: int) -> int:
    """Byte cost of shipping one full parameter vector of 32-bit floats.

    This is the formula-only comparison row (model push or pull = d floats);
    first-order federated baselines pay it in both directions every round.
    """
    return 4 * dim


def format_bytes(n: int) -> str:
    """Render a byte count in both decimal and binary units (the published
    tables' unit base is ambiguous, so print both)."""
    return f"{n} B = {n / 1e3:.2f} KB (1000) = {n / 1024:.2f} KiB (1024)"
