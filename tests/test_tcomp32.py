"""tcomp32: stateless null suppression (Algorithm 2)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import Tcomp32
from repro.errors import CompressionError, CorruptStreamError
from tests.oracles import tcomp32_reference


def words_to_bytes(values):
    return np.asarray(values, dtype=np.uint32).tobytes()


@pytest.fixture
def codec():
    return Tcomp32()


class TestRoundTrip:
    def test_empty_input(self, codec):
        result = codec.compress(b"")
        assert codec.decompress(result.payload) == b""

    def test_single_zero_word(self, codec):
        data = words_to_bytes([0])
        assert codec.decompress(codec.compress(data).payload) == data

    def test_max_value_word(self, codec):
        data = words_to_bytes([0xFFFFFFFF])
        assert codec.decompress(codec.compress(data).payload) == data

    def test_mixed_values(self, codec):
        data = words_to_bytes([0, 1, 3, 7, 255, 1 << 20, 0xFFFFFFFF])
        assert codec.decompress(codec.compress(data).payload) == data

    def test_rovio_batch(self, codec, rovio_data):
        result = codec.compress(rovio_data)
        assert codec.decompress(result.payload) == rovio_data

    def test_sensor_batch(self, codec, sensor_data):
        result = codec.compress(sensor_data)
        assert codec.decompress(result.payload) == sensor_data

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_words(self, values):
        codec = Tcomp32()
        data = words_to_bytes(values)
        assert codec.decompress(codec.compress(data).payload) == data


class TestCompression:
    def test_small_values_compress(self, codec):
        # 1000 words that need <= 8 bits each: 13 bits out of 32.
        data = words_to_bytes([200] * 1000)
        result = codec.compress(data)
        assert result.compression_ratio > 2.0

    def test_random_values_expand(self, codec, rng):
        data = rng.integers(0, 1 << 32, 500, dtype=np.uint32).tobytes()
        result = codec.compress(data)
        # 5-bit header per 32-bit word: ratio just below 1.
        assert 0.8 < result.compression_ratio < 1.0

    def test_unaligned_input_rejected(self, codec):
        with pytest.raises(CompressionError):
            codec.compress(b"abc")

    def test_output_size_formula(self, codec):
        # Every word = 3 -> n=2 -> 5 + 2 = 7 bits per word plus header.
        data = words_to_bytes([3] * 64)
        result = codec.compress(data)
        expected_bits = 64 * 7
        expected_bytes = 4 + (expected_bits + 7) // 8
        assert result.output_size == expected_bytes


class TestCostModel:
    def test_step_cover(self, codec):
        assert codec.step_ids() == ("s0", "s1", "s2")
        assert not codec.stateful

    def test_counters_track_significant_bits(self, codec):
        data = words_to_bytes([1, 3, 7])  # 1 + 2 + 3 bits
        result = codec.compress(data)
        assert result.counters["significant_bits"] == 6
        assert result.counters["mean_significant_bits"] == pytest.approx(2.0)

    def test_kappa_ordering(self, codec, rovio_data):
        costs = codec.compress(rovio_data).step_costs
        # read << write < encode in operational intensity (paper Fig 3).
        assert (
            costs["s0"].operational_intensity
            < costs["s2"].operational_intensity
            < costs["s1"].operational_intensity
        )

    def test_encode_cost_grows_with_dynamic_range(self, codec):
        narrow = codec.compress(words_to_bytes([3] * 256))
        wide = codec.compress(words_to_bytes([0xFFFFFFF] * 256))
        assert (
            wide.step_costs["s1"].instructions
            > narrow.step_costs["s1"].instructions
        )
        assert (
            wide.step_costs["s2"].instructions
            > narrow.step_costs["s2"].instructions
        )

    def test_costs_scale_linearly_with_words(self, codec):
        small = codec.compress(words_to_bytes([5] * 100))
        large = codec.compress(words_to_bytes([5] * 400))
        ratio = (
            large.step_costs["s1"].instructions
            / small.step_costs["s1"].instructions
        )
        assert ratio == pytest.approx(4.0, rel=1e-6)

    def test_rovio_anchor_kappas(self, codec, rovio_data):
        """Calibration anchors from the paper's Table IV."""
        from repro.compression.base import StepCost

        costs = codec.compress(rovio_data).step_costs
        fused = StepCost.merged([costs["s0"], costs["s1"]])
        assert 280 < fused.operational_intensity < 360
        assert 90 < costs["s2"].operational_intensity < 115

    def test_s1_forwards_descriptors(self, codec, rovio_data):
        costs = codec.compress(rovio_data).step_costs
        # s1 forwards ~5 bytes per 4-byte word.
        assert costs["s1"].output_bytes == pytest.approx(
            len(rovio_data) * 1.25, rel=0.01
        )


class TestFastPath:
    """The vectorized encoder is byte-identical to the reference loop."""

    def test_rovio_batch_identical(self, rovio_data):
        fast = Tcomp32().compress(rovio_data)
        payload, significant_bits = tcomp32_reference(rovio_data)
        assert fast.payload == payload
        assert fast.counters["significant_bits"] == significant_bits

    def test_edge_values_identical(self):
        data = words_to_bytes([0, 1, 2, 3, 0xFFFFFFFF, 1 << 31, (1 << 24) - 1])
        assert Tcomp32().compress(data).payload == tcomp32_reference(data)[0]

    def test_power_of_two_boundaries_identical(self):
        values = []
        for exponent in range(32):
            values.extend([(1 << exponent) - 1, 1 << exponent])
        data = words_to_bytes([v & 0xFFFFFFFF for v in values])
        assert Tcomp32().compress(data).payload == tcomp32_reference(data)[0]

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_words_identical(self, values):
        data = words_to_bytes(values)
        assert Tcomp32().compress(data).payload == tcomp32_reference(data)[0]

    def test_fast_round_trips(self, rng):
        data = rng.integers(0, 1 << 32, 20_000, dtype=np.uint32).tobytes()
        codec = Tcomp32()
        assert codec.decompress(codec.compress(data).payload) == data

    def test_fast_is_faster_on_large_batches(self, rng):
        import os
        import time

        if os.cpu_count() == 1:
            pytest.skip("timing comparison is noise-bound on 1 CPU")

        def best_of(compress, data, repetitions=3):
            best = float("inf")
            for _ in range(repetitions):
                started = time.perf_counter()
                compress(data)
                best = min(best, time.perf_counter() - started)
            return best

        data = rng.integers(0, 1 << 32, 100_000, dtype=np.uint32).tobytes()
        fast_seconds = best_of(Tcomp32().compress, data)
        reference_seconds = best_of(tcomp32_reference, data)
        # relative margin: the vectorized path must win clearly, not by
        # a scheduler-jitter-sized sliver
        assert fast_seconds < reference_seconds * 0.8


class TestCorruption:
    def test_truncated_header(self, codec):
        with pytest.raises(CorruptStreamError):
            codec.decompress(b"\x01")

    def test_truncated_body(self, codec):
        payload = codec.compress(words_to_bytes([0xFFFFFFFF] * 10)).payload
        with pytest.raises(CorruptStreamError):
            codec.decompress(payload[:-2])

    def test_header_promising_too_many_words(self, codec):
        payload = bytearray(codec.compress(words_to_bytes([7] * 4)).payload)
        struct.pack_into("<I", payload, 0, 10_000)
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(payload))
