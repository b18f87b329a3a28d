"""mltc round-trips every option on every dataset and rejects corrupt
streams with :class:`CorruptStreamError`."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.mltc import _HEADER, Mltc
from repro.datasets import DATASET_NAMES, get_dataset
from repro.errors import CorruptStreamError


@pytest.mark.parametrize("channels", [1, 2, 3, 16])
@pytest.mark.parametrize("epsilon", [0, 16, 1000])
def test_round_trips_across_options(channels, epsilon):
    codec = Mltc(channels=channels, epsilon=epsilon)
    for name in DATASET_NAMES:
        data = get_dataset(name).generate(4096, seed=channels + epsilon)
        for cut in (0, 4, 8, 12, 1, 2, 3, 5, 7):
            sample = data[: len(data) - cut]
            assert codec.decompress(codec.compress(sample).payload) == sample


@given(
    st.binary(max_size=600),
    st.sampled_from([1, 2, 3, 16]),
    st.sampled_from([0, 16, 1000]),
)
@settings(max_examples=80, deadline=None)
def test_round_trips_arbitrary_bytes(data, channels, epsilon):
    codec = Mltc(channels=channels, epsilon=epsilon)
    assert codec.decompress(codec.compress(data).payload) == data


def _one_channel_payload(samples):
    codec = Mltc(channels=1)
    return codec, codec.compress(
        np.asarray(samples, dtype=np.uint32).tobytes()
    ).payload


class TestCorruptStreams:
    def test_truncated_residuals(self):
        codec, payload = _one_channel_payload([1, 900, 3, 70_000, 5])
        blob_length = struct.unpack_from("<I", payload, _HEADER.size)[0]
        # drop the blob's last residual byte and shrink its length field
        shorter = bytearray(payload[:-1])
        struct.pack_into("<I", shorter, _HEADER.size, blob_length - 1)
        with pytest.raises(CorruptStreamError, match="codes"):
            codec.decompress(bytes(shorter))

    def test_segment_lengths_must_cover_the_samples(self):
        codec, payload = _one_channel_payload([1, 2, 3, 4, 5, 6])
        corrupt = bytearray(payload)
        # first segment's length field follows the 13-byte channel header
        offset = _HEADER.size + 4 + 13
        struct.pack_into("<I", corrupt, offset, 99)
        with pytest.raises(CorruptStreamError, match="cover"):
            codec.decompress(bytes(corrupt))

    def test_residual_width_past_33_bits(self):
        codec, payload = _one_channel_payload([1, 2, 3])
        corrupt = bytearray(payload)
        corrupt[_HEADER.size + 4 + 12] = 40
        with pytest.raises(CorruptStreamError, match="width"):
            codec.decompress(bytes(corrupt))

    def test_channel_counts_must_interleave(self):
        codec = Mltc(channels=2)
        left = Mltc(channels=1).compress(
            np.arange(3, dtype=np.uint32).tobytes()
        ).payload[_HEADER.size:]
        right = Mltc(channels=1).compress(
            np.arange(1, dtype=np.uint32).tobytes()
        ).payload[_HEADER.size:]
        payload = _HEADER.pack(16, 2, 16, 0) + left + right
        with pytest.raises(CorruptStreamError, match="interleave"):
            codec.decompress(payload)

    @staticmethod
    def _forged_channel(original, count, width, residual=b""):
        """A one-channel stream whose single segment covers ``count``
        samples, so only the count checks stand between the header and
        a ``count``-sized allocation."""
        blob = (
            struct.pack("<IIIB", count, 0, 1, width)
            + struct.pack("<II", count - 1, 0)
            + residual
        )
        return _HEADER.pack(original, 1, 16, 0) + struct.pack(
            "<I", len(blob)
        ) + blob

    @pytest.mark.parametrize("width", [0, 1, 33])
    def test_count_past_the_header_word_count(self, width):
        payload = self._forged_channel(16, 2**32 - 1, width)
        with pytest.raises(CorruptStreamError, match="room for 4"):
            Mltc(channels=1).decompress(payload)

    def test_count_past_the_residual_bits(self):
        # the header allows the count; the blob carries 8 of 20 bits
        payload = self._forged_channel(80, 20, 1, residual=b"\x00")
        with pytest.raises(CorruptStreamError, match="too few bits"):
            Mltc(channels=1).decompress(payload)

    def test_channels_share_the_header_word_count(self):
        codec = Mltc(channels=2)
        blob = Mltc(channels=1).compress(
            np.arange(4, dtype=np.uint32).tobytes()
        ).payload[_HEADER.size:]
        # each channel fits alone; together they claim 8 of 4 words
        payload = _HEADER.pack(16, 2, 16, 0) + blob + blob
        with pytest.raises(CorruptStreamError, match="room for 0"):
            codec.decompress(payload)
