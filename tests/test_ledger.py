import hashlib
import struct

import numpy as np
import pytest

from scalarfed import (CommMeter, Ledger, QuadraticTask, RoundConfig, RoundLog,
                       WireCostModel, deserialize, fetch_since, full_vector_bytes,
                       meter_round, per_client_scalar_bytes, record_round, run_training,
                       serialize)
from scalarfed.errors import LedgerFormatError, LedgerRangeError, ProtocolOrderError
from scalarfed.rng import mix, raw_uint64


def make_log(r, tau=2, P=3, seed=0):
    vals = (raw_uint64(mix(seed, r), tau * P).astype(np.float64) / 2**64).reshape(tau, P)
    return RoundLog(round=r, scalars=vals)


def test_record_first_round():
    led = Ledger(num_clients=3)
    led = record_round(led, make_log(0), [0, 2])
    assert led.current_round == 1
    assert led.last_participation == {0: 0, 1: 0, 2: 0}


def test_record_round_gap_rejected():
    led = record_round(Ledger(num_clients=2), make_log(0), [0])
    with pytest.raises(ProtocolOrderError):
        record_round(led, make_log(2), [0])
    assert led.current_round == 1


def test_record_round_appends_in_place():
    led = Ledger(num_clients=3)
    logs = led.logs
    assert record_round(led, make_log(0), [0, 2]) is led
    assert record_round(led, make_log(1), [1]) is led
    assert led.logs is logs and led.logs == [make_log(0), make_log(1)]
    assert led.last_participation == {0: 0, 1: 1, 2: 0}


def test_record_round_unknown_client_leaves_the_ledger_as_it_was():
    # client 0 is known and comes first: it must not be marked either
    led = record_round(Ledger(num_clients=3), make_log(0), [1])
    with pytest.raises(ProtocolOrderError):
        record_round(led, make_log(1), [0, 3])
    assert led.current_round == 1
    assert led.last_participation == {0: 0, 1: 0, 2: 0}


def test_record_round_other_shape_leaves_the_ledger_writable():
    # a (2, 3) log after a (1, 2) one would make a ledger serialize cannot write
    led = record_round(Ledger(num_clients=2), make_log(0, tau=1, P=2), [0])
    with pytest.raises(ProtocolOrderError, match=r"shape \(2, 3\)"):
        record_round(led, make_log(1, tau=2, P=3), [1])
    assert led.current_round == 1
    assert led.last_participation == {0: 0, 1: 0}
    assert deserialize(serialize(led)) == led


def test_nonfinite_scalars_rejected():
    with pytest.raises(ProtocolOrderError):
        RoundLog(round=0, scalars=np.array([[np.nan]]))


def test_participation_tracking_replay_oracle():
    # independent replay: last_participation equals each client's true last round
    led = Ledger(num_clients=5)
    last_truth = {i: 0 for i in range(5)}
    for r in range(100):
        participants = sorted({int(v % 5) for v in raw_uint64(mix(1, r), 2)})
        led = record_round(led, make_log(r), participants)
        for i in participants:
            last_truth[i] = r
    assert led.last_participation == last_truth


def test_fetch_since_ranges():
    led = Ledger(num_clients=2)
    for r in range(7):
        led = record_round(led, make_log(r), [0])
    assert fetch_since(led, 7) == []
    got = fetch_since(led, 3)
    assert [log.round for log in got] == [3, 4, 5, 6]
    with pytest.raises(LedgerRangeError):
        fetch_since(led, 8)


@pytest.mark.parametrize("r_last", [-1, -4, -8])
def test_fetch_since_rejects_negative_round(r_last):
    # a negative start would slice from the end: -1 on a 4-round ledger
    # returned only the log of round 3
    led = Ledger(num_clients=2)
    for r in range(4):
        led = record_round(led, make_log(r), [0])
    with pytest.raises(LedgerRangeError):
        fetch_since(led, r_last)


def test_fetch_coverage_count_oracle():
    # concatenated per-client fetches cover every round exactly once per client
    M, R = 4, 50
    led = Ledger(num_clients=M)
    last = {i: 0 for i in range(M)}
    seen = {i: [] for i in range(M)}
    for r in range(R):
        participants = sorted({int(v % M) for v in raw_uint64(mix(2, r), 2)})
        for i in participants:
            seen[i].extend(log.round for log in fetch_since(led, last[i]))
            last[i] = r
        led = record_round(led, make_log(r), participants)
    for i in range(M):
        seen[i].extend(log.round for log in fetch_since(led, last[i]))
        assert seen[i] == list(range(R))


def test_serialize_round_trip_empty():
    led = Ledger(num_clients=4)
    assert deserialize(serialize(led)) == led


def test_serialize_round_trip_bit_exact():
    led = Ledger(num_clients=3)
    for r in range(10):
        led = record_round(led, make_log(r, tau=3, P=2, seed=9), [r % 3])
    again = deserialize(serialize(led, root_seed=123))
    assert again == led
    for a, b in zip(again.logs, led.logs):
        assert np.array_equal(a.scalars, b.scalars)


# SHA-256 of the long ledger below as the per-field struct writer laid it out
LONG_LEDGER_SHA256 = "fe6f98053f2fa74ce97d92f4dc97a0dc32f23556c27934303b4c201e4ebb9950"


def test_long_ledger_bytes_are_pinned():
    led = Ledger(num_clients=256)
    for r in range(2000):
        participants = sorted({int(v % 256) for v in raw_uint64(mix(3, r), 4)})
        led = record_round(led, make_log(r, tau=2, P=3, seed=7), participants)
    blob = serialize(led, root_seed=11)
    assert len(blob) == 24 + 8 * 256 + 8 + 2000 * (8 + 8 * 2 * 3)
    assert hashlib.sha256(blob).hexdigest() == LONG_LEDGER_SHA256
    assert deserialize(blob) == led


def test_deserialize_truncated_stream_errors_with_offset():
    blob = serialize(record_round(Ledger(num_clients=2), make_log(0), [0]))
    with pytest.raises(LedgerFormatError) as err:
        deserialize(blob[: len(blob) - 5])
    assert err.value.offset > 0


def test_deserialize_bad_magic():
    with pytest.raises(LedgerFormatError):
        deserialize(b"NOPE" + b"\x00" * 64)


def run_ledger_bytes(root_seed=5):
    """The serialized ledger of a short real run: M = 4, 4 rounds, (tau, P) = (1, 2)."""
    task = QuadraticTask.build(dim=6, num_clients=4, seed=3, spectrum_variance=1.0,
                               offset_scale=0.1, x0_scale=0.5)
    config = RoundConfig(num_clients=4, sampled_per_round=2, rounds=4, eta=0.02,
                         perturbations=2, root_seed=root_seed)
    return serialize(run_training(config, task).server.ledger, root_seed=root_seed)


def patched(blob, offset, fmt, value):
    data = bytearray(blob)
    struct.pack_into(fmt, data, offset, value)
    return bytes(data)


def test_deserialize_rejects_nonzero_pad():
    # the pad is not read, so a non-zero one would re-serialize to other bytes
    with pytest.raises(LedgerFormatError) as err:
        deserialize(patched(run_ledger_bytes(), 6, "<H", 1))
    assert err.value.offset == 6


@pytest.mark.parametrize("field", [8, 10], ids=["tau-0", "P-0"])
def test_deserialize_rejects_empty_scalar_shape_with_rounds(field):
    blob = run_ledger_bytes()
    count_at = 24 + 8 * 4  # the header, then M = 4 participation rounds
    assert struct.unpack_from("<HH", blob, 8) == (1, 2)
    assert struct.unpack_from("<Q", blob, count_at) == (4,)
    # keep the stream consistent with the zeroed shape: only round indices remain
    shrunk = patched(blob[:count_at + 8], field, "<H", 0)
    shrunk += b"".join(struct.pack("<Q", r) for r in range(4))
    with pytest.raises(LedgerFormatError) as err:
        deserialize(shrunk)
    assert err.value.offset == 8


def test_deserialize_rejects_scalar_shape_without_rounds():
    # an empty ledger serializes as (tau, P) = (0, 0), so any other shape
    # with no rounds cannot come from serialize
    with pytest.raises(LedgerFormatError) as err:
        deserialize(patched(serialize(Ledger(num_clients=2)), 8, "<H", 3))
    assert err.value.offset == 8


@pytest.mark.parametrize("client, value", [(0, 4), (2, 4 + 2**63)],
                         ids=["at-count", "high-bit"])
def test_deserialize_rejects_participation_beyond_the_rounds(client, value):
    # a round at or past the count would make the first fetch_since fail
    with pytest.raises(LedgerFormatError) as err:
        deserialize(patched(run_ledger_bytes(), 24 + 8 * client, "<Q", value))
    assert err.value.offset == 24 + 8 * client


def test_meter_hand_cases():
    meter = CommMeter()
    # m=2, tau=1, P=5, each client replaying exactly the previous round
    meter = meter_round(meter, 2, 1, 5, [1, 1])
    assert meter.uplink_bytes == 40      # 2 clients x 5 scalars x 4 B
    assert meter.downlink_bytes == 40    # 2 clients x 1 round x 5 scalars x 4 B
    # smallest case: P=1, tau=1, m=1 is 8 bytes total
    small = meter_round(CommMeter(), 1, 1, 1, [1])
    assert small.uplink_bytes + small.downlink_bytes == 8


def test_meter_monotone_and_deterministic():
    meter = CommMeter()
    prev = (0, 0)
    for r in range(20):
        meter = meter_round(meter, 3, 2, 4, [r % 3, 1, 0])
        now = (meter.uplink_bytes, meter.downlink_bytes)
        assert now >= prev
        prev = now
    again = CommMeter()
    for r in range(20):
        again = meter_round(again, 3, 2, 4, [r % 3, 1, 0])
    assert (again.uplink_bytes, again.downlink_bytes) == prev


def test_meter_seed_cost_model():
    cost = WireCostModel(bytes_per_scalar=4, bytes_per_seed=8)
    meter = meter_round(CommMeter(cost=cost), 1, 1, 5, [2])
    assert meter.uplink_bytes == 20            # scalars only go up
    assert meter.downlink_bytes == 2 * 5 * 12  # 2 rounds x 5 x (4 + 8)


def test_per_client_table_arithmetic():
    # published table anchor: 550 rounds at tau=1, P=5, 4-byte scalars
    total = per_client_scalar_bytes(550, 1, 5)
    assert total == 550 * 40
    assert abs(total - 21.56 * 1024) / (21.56 * 1024) < 0.02


def test_full_vector_formula():
    assert full_vector_bytes(1_300_000_000) == 5_200_000_000
    ratio = full_vector_bytes(1_300_000_000) / 40
    assert ratio == pytest.approx(1.3e8, rel=1e-6)
