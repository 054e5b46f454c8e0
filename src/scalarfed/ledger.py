"""The scalar-only wire: round logs, participation tracking, byte metering.

A RoundLog is the only thing that ever crosses the client-server boundary:
one (tau x P) matrix of aggregated gradient scalars per round (seeds are
derived from the shared root and cost nothing unless configured otherwise).
The Ledger is an append-only record of the logs plus each client's last
participation round, which the run extends in place, one round at a time;
together with the root seed it fully determines the server model at any
round, which a rebuild from the serialized bytes verifies bitwise.
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
        return (isinstance(other, RoundLog) and self.round == other.round
                and np.array_equal(self.scalars, other.scalars))


@dataclass
class Ledger:
    """Gap-free history of round logs plus per-client last participation,
    appended in place by `record_round` (O(1) per round however long the
    run); a copy that must not change is kept serialized, not shared."""

    num_clients: int
    logs: list = field(default_factory=list)
    last_participation: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.last_participation:
            self.last_participation = {i: 0 for i in range(self.num_clients)}

    @property
    def current_round(self) -> int:
        return len(self.logs)


def record_round(ledger: Ledger, log: RoundLog, participants) -> Ledger:
    """Append the next round's log and mark the participants, in place, and
    return the same ledger. The round index, the (tau, P) shape, which must
    be that of the earlier rounds, and every participant id are checked
    first, so a rejected append leaves the ledger as it was.

    A client's recorded round means "this client's model equals the global
    model at the START of that round": participating clients reset to their
    round-start model, so on their next appearance they must replay from
    this round inclusive.
    """
    if log.round != ledger.current_round:
        raise ProtocolOrderError(f"expected round {ledger.current_round}, got {log.round} "
                                 "(no gaps allowed)")
    if ledger.logs and log.scalars.shape != ledger.logs[0].scalars.shape:
        raise ProtocolOrderError(f"round {log.round} scalars have shape {log.scalars.shape}, "
                                 f"earlier rounds {ledger.logs[0].scalars.shape}")
    marks = {}
    for cid in participants:
        if cid not in ledger.last_participation:
            raise ProtocolOrderError(f"unknown client id {cid}")
        marks[int(cid)] = log.round
    ledger.logs.append(log)
    ledger.last_participation.update(marks)
    return ledger


def fetch_since(ledger: Ledger, r_last: int):
    """All logs with round in [r_last, current), ascending; the replay feed
    for a client whose model state is the global model at round r_last."""
    if not 0 <= r_last <= ledger.current_round:
        raise LedgerRangeError(f"r_last={r_last} outside [0, current round "
                               f"{ledger.current_round}]")
    return ledger.logs[r_last:]


# --- binary serialization ----------------------------------------------------
#
# Fixed-width little-endian layout, atomic parse (truncation yields an error,
# never a partial ledger):
#   header: magic(4s) version(u16) pad(u16) tau(u16) P(u16) root_seed(u64) M(u32)
#   participation: M x u64
#   rounds: count(u64), then one packed record per round: round(u64) followed
#           by tau*P f64 scalars. Per-round participants are not stored;
#           participation is held in the aggregate map above.

_HEADER = struct.Struct("<4sHHHHQI")


def _rounds_dtype(tau: int, P: int) -> np.dtype:
    return np.dtype([("round", "<u8"), ("scalars", "<f8", (tau, P))])


def _first(mask) -> int:
    """Index of the first true entry of `mask`, or -1 if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else -1


def serialize(ledger: Ledger, root_seed: int = 0) -> bytes:
    tau, P = ledger.logs[0].scalars.shape if ledger.logs else (0, 0)
    rounds = np.empty(len(ledger.logs), _rounds_dtype(tau, P))
    rounds["round"] = [log.round for log in ledger.logs]
    rounds["scalars"] = [log.scalars for log in ledger.logs]
    participation = [ledger.last_participation[i] for i in range(ledger.num_clients)]
    return b"".join([_HEADER.pack(_MAGIC, _VERSION, 0, tau, P, root_seed, ledger.num_clients),
                     np.array(participation, "<u8").tobytes(),
                     struct.pack("<Q", len(ledger.logs)), rounds.tobytes()])


def deserialize(data: bytes) -> Ledger:
    if len(data) < _HEADER.size:
        raise LedgerFormatError("truncated stream while reading header", 0)
    magic, version, pad, tau, P, _root, num_clients = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise LedgerFormatError(f"bad magic {magic!r}", 0)
    if version != _VERSION:
        raise LedgerFormatError(f"unsupported version {version}", 4)
    if pad != 0:
        raise LedgerFormatError(f"non-zero pad {pad}", 6)
    rounds_at = _HEADER.size + 8 * num_clients + 8
    if len(data) < rounds_at:
        raise LedgerFormatError(f"truncated stream: {len(data)} bytes hold no round count "
                                f"after {num_clients} participation rounds", _HEADER.size)
    (n_rounds,) = struct.unpack_from("<Q", data, rounds_at - 8)
    # serialize writes (0, 0) for an empty ledger and the logs' shape otherwise
    if not (tau >= 1 and P >= 1 if n_rounds else tau == P == 0):
        raise LedgerFormatError(f"scalar shape ({tau}, {P}) with {n_rounds} rounds", 8)
    row = 8 * (1 + tau * P)
    if len(data) != rounds_at + n_rounds * row:
        raise LedgerFormatError(f"stream of {len(data)} bytes, where the header and round "
                                f"count declare {rounds_at + n_rounds * row}", rounds_at)
    last = np.frombuffer(data, "<u8", num_clients, _HEADER.size)
    i = _first(last >= max(n_rounds, 1))
    if i >= 0:
        raise LedgerFormatError(f"client {i} last participated in round {last[i]} of {n_rounds}",
                                _HEADER.size + 8 * i)
    rounds = np.frombuffer(data, _rounds_dtype(tau, P), n_rounds, rounds_at)
    scalars = rounds["scalars"].astype(np.float64)
    r = _first(rounds["round"] != np.arange(n_rounds, dtype=np.uint64))
    if r >= 0:
        raise LedgerFormatError("round indices are not gap-free", rounds_at + r * row)
    r = _first(~np.isfinite(scalars).all(axis=(1, 2)))
    if r >= 0:
        raise LedgerFormatError(f"round {r} log contains non-finite scalars", rounds_at + r * row)
    return Ledger(num_clients=num_clients,
                  logs=[RoundLog(round=r, scalars=s) for r, s in enumerate(scalars)],
                  last_participation=dict(enumerate(last.tolist())))


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
