"""Feature extraction tests, cross-checked against the pure-Python oracles."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from replaycheck.features import DIMENSIONS, HISTOGRAM_BUCKETS, FeatureVector, featurize

from oracles import byte_entropy, byte_histogram, printable_ratio


class TestKnownValues:
    def test_repeated_byte_payload(self):
        vec = featurize(b"AAAA")
        assert vec.length == 4
        assert vec.entropy == 0.0
        assert vec.printable_ratio == 1.0
        expected = [0.0] * HISTOGRAM_BUCKETS
        expected[4] = 1.0  # ord("A") == 0x41
        assert list(vec.byte_histogram) == expected

    def test_empty_payload_all_zero(self):
        vec = featurize(b"")
        assert vec.length == 0
        assert vec.entropy == 0.0
        assert vec.printable_ratio == 0.0
        assert set(vec.byte_histogram) == {0.0}
        assert not any(vec.as_row())

    def test_two_symbol_entropy_is_one_bit(self):
        assert featurize(b"\x00\xff" * 8).entropy == pytest.approx(1.0)

    def test_all_256_values_entropy_is_eight_bits(self):
        assert featurize(bytes(range(256))).entropy == pytest.approx(8.0)

    def test_large_random_payload_frozen_entropy(self):
        rng = random.Random(20240817)
        payload = bytes(rng.getrandbits(8) for _ in range(4096))
        vec = featurize(payload)
        assert vec.entropy == pytest.approx(7.947246727208229, abs=1e-12)
        assert vec.entropy == pytest.approx(byte_entropy(payload), abs=1e-12)

    def test_control_bytes_not_printable(self):
        assert featurize(b"\x00\x01\x02\x03").printable_ratio == 0.0

    def test_whitespace_counts_as_printable(self):
        assert featurize(b"\t\n\r ").printable_ratio == 1.0

    def test_delete_byte_not_printable(self):
        assert featurize(b"\x7f").printable_ratio == 0.0

    def test_dimension_count(self):
        assert DIMENSIONS == 19
        assert len(featurize(b"xyz").as_row()) == 19


class TestValidation:
    def test_entropy_bounds_enforced(self):
        with pytest.raises(ValueError):
            FeatureVector(1, 8.5, 0.0, (0.0,) * 15 + (1.0,))

    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValueError):
            FeatureVector(1, 0.0, 1.5, (0.0,) * 15 + (1.0,))

    def test_histogram_length_enforced(self):
        with pytest.raises(ValueError):
            FeatureVector(1, 0.0, 0.0, (1.0,))

    def test_histogram_sum_enforced(self):
        with pytest.raises(ValueError):
            FeatureVector(1, 0.0, 0.0, (0.5,) * HISTOGRAM_BUCKETS)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(-1, 0.0, 0.0, (0.0,) * HISTOGRAM_BUCKETS)


payloads = st.binary(max_size=600)


class TestProperties:
    @given(payloads)
    def test_matches_oracles(self, payload):
        # bit for bit: featurize rounds as the oracles do
        vec = featurize(payload)
        assert vec.length == len(payload)
        assert vec.entropy == byte_entropy(payload)
        assert vec.printable_ratio == printable_ratio(payload)
        oracle_hist = byte_histogram(payload)
        assert len(oracle_hist) == HISTOGRAM_BUCKETS
        assert list(vec.byte_histogram) == oracle_hist

    @given(payloads)
    def test_bounds_hold(self, payload):
        vec = featurize(payload)
        assert 0.0 <= vec.entropy <= 8.0
        assert 0.0 <= vec.printable_ratio <= 1.0
        total = sum(vec.byte_histogram)
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
        assert featurize(shuffled).entropy == pytest.approx(
            featurize(payload).entropy, abs=1e-9
        )
        assert featurize(shuffled).byte_histogram == pytest.approx(
            featurize(payload).byte_histogram, abs=1e-9
        )
