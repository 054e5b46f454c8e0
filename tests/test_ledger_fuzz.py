"""Property: whatever a ledger file has been through, `deserialize` either
raises LedgerFormatError or returns a ledger that re-serializes to the same
bytes and whose participation rounds all lie inside its history. Inputs are
the serialized ledger of a short real run, truncated and with bits flipped.
"""

import struct

from hypothesis import given, settings, strategies as st

from scalarfed import deserialize, serialize
from scalarfed.errors import LedgerFormatError
from test_ledger import run_ledger_bytes

BLOB = run_ledger_bytes()


def check(data: bytes):
    try:
        ledger = deserialize(data)
    except LedgerFormatError:
        return
    (root_seed,) = struct.unpack_from("<Q", data, 12)
    assert serialize(ledger, root_seed=root_seed) == data
    assert all(t < max(ledger.current_round, 1) for t in ledger.last_participation.values())


def test_every_truncation_and_single_bit_flip():
    for cut in range(len(BLOB)):
        check(BLOB[:cut])
    for bit in range(8 * len(BLOB)):
        data = bytearray(BLOB)
        data[bit // 8] ^= 1 << (bit % 8)
        check(bytes(data))


@settings(max_examples=500)
@given(st.sets(st.integers(0, 8 * len(BLOB) - 1), min_size=1, max_size=16),
       st.integers(0, len(BLOB)))
def test_bit_flips_then_truncation(flips, cut):
    data = bytearray(BLOB)
    for bit in flips:
        data[bit // 8] ^= 1 << (bit % 8)
    check(bytes(data[:cut]))
