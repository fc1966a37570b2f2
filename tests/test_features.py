"""Feature extraction tests, cross-checked against the pure-Python oracles."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from replaycheck.features import (
    DIMENSIONS,
    ENTROPY,
    HISTOGRAM,
    HISTOGRAM_BUCKETS,
    LENGTH,
    PRINTABLE_RATIO,
    featurize,
)

from oracles import byte_entropy, byte_histogram, printable_ratio


class TestKnownValues:
    def test_repeated_byte_payload(self):
        vec = featurize(b"AAAA")
        assert vec[LENGTH] == 4
        assert vec[ENTROPY] == 0.0
        assert vec[PRINTABLE_RATIO] == 1.0
        expected = [0.0] * HISTOGRAM_BUCKETS
        expected[4] = 1.0  # ord("A") == 0x41
        assert list(vec[HISTOGRAM]) == expected

    def test_empty_payload_all_zero(self):
        assert featurize(b"") == (0.0,) * DIMENSIONS

    def test_two_symbol_entropy_is_one_bit(self):
        assert featurize(b"\x00\xff" * 8)[ENTROPY] == pytest.approx(1.0)

    def test_all_256_values_entropy_is_eight_bits(self):
        assert featurize(bytes(range(256)))[ENTROPY] == pytest.approx(8.0)

    def test_large_random_payload_frozen_entropy(self):
        rng = random.Random(20240817)
        payload = bytes(rng.getrandbits(8) for _ in range(4096))
        vec = featurize(payload)
        assert vec[ENTROPY] == pytest.approx(7.947246727208229, abs=1e-12)
        assert vec[ENTROPY] == pytest.approx(byte_entropy(payload), abs=1e-12)

    def test_control_bytes_not_printable(self):
        assert featurize(b"\x00\x01\x02\x03")[PRINTABLE_RATIO] == 0.0

    def test_whitespace_counts_as_printable(self):
        assert featurize(b"\t\n\r ")[PRINTABLE_RATIO] == 1.0

    def test_delete_byte_not_printable(self):
        assert featurize(b"\x7f")[PRINTABLE_RATIO] == 0.0

    def test_dimension_count(self):
        assert DIMENSIONS == 19
        assert len(featurize(b"xyz")) == 19


payloads = st.binary(max_size=600)


class TestProperties:
    @given(payloads)
    def test_matches_oracles(self, payload):
        # bit for bit: featurize rounds as the oracles do
        vec = featurize(payload)
        assert vec[LENGTH] == len(payload)
        assert vec[ENTROPY] == byte_entropy(payload)
        assert vec[PRINTABLE_RATIO] == printable_ratio(payload)
        oracle_hist = byte_histogram(payload)
        assert len(oracle_hist) == HISTOGRAM_BUCKETS
        assert list(vec[HISTOGRAM]) == oracle_hist

    @given(payloads)
    def test_bounds_hold(self, payload):
        vec = featurize(payload)
        assert type(vec) is tuple and len(vec) == DIMENSIONS
        assert all(type(x) is float and math.isfinite(x) for x in vec)
        assert 0.0 <= vec[ENTROPY] <= 8.0
        assert 0.0 <= vec[PRINTABLE_RATIO] <= 1.0
        assert min(vec[HISTOGRAM]) >= 0.0
        total = sum(vec[HISTOGRAM])
        if payload:
            assert math.isclose(total, 1.0, abs_tol=1e-9)
        else:
            assert total == 0.0

    @given(payloads)
    def test_pure_and_deterministic(self, payload):
        assert featurize(payload) == featurize(payload)

    @given(payloads.filter(bool))
    def test_entropy_invariant_under_byte_permutation(self, payload):
        shuffled = bytes(sorted(payload))
        assert featurize(shuffled)[ENTROPY] == pytest.approx(
            featurize(payload)[ENTROPY], abs=1e-9
        )
        assert featurize(shuffled)[HISTOGRAM] == pytest.approx(
            featurize(payload)[HISTOGRAM], abs=1e-9
        )
