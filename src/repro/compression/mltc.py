"""mltc — multi-channel lightweight temporal compression (fan-out DAG).

IoT boards rarely stream one signal: a flight controller interleaves
accelerometer, gyro and barometer channels in a single tuple stream.
``mltc`` de-interleaves the 32-bit words of a batch into ``channels``
round-robin sub-streams and runs *lightweight temporal compression*
(LTC: piecewise-linear approximation under an error cone) on each
channel independently, making the pipeline a fan-out/fan-in DAG:

* ``m0`` split — de-interleave words into per-channel buffers: a pure
  shuffle, two memory accesses per byte (*low* intensity);
* ``c1`` .. ``cK`` encode — per-channel LTC cone tracking plus residual
  packing: register arithmetic per sample (*high* intensity), one task
  per channel, all independent;
* ``mz`` merge — concatenate channel blobs into the framed payload
  (*low* intensity).

LTC itself is lossy; the stream contract here demands an exact
round-trip, so each channel stores its piecewise-linear *anchors*
(segment length + approximated end value, chained so each segment
starts at the previous segment's stored anchor) and then bit-packs the
per-sample residuals against the reconstructed prediction, zig-zag
coded at the channel's worst-case width. Smooth telemetry yields long
segments and near-zero residual widths; noise degrades toward raw.

Step graph (``channels=2``)::

            +-> c1 -+
    m0 ----+        +--> mz
            +-> c2 -+
"""

from __future__ import annotations

import struct
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.compression.base import (
    CompressionResult,
    StepCost,
    StepRole,
    StepSpec,
    StreamCompressor,
)
from repro.compression.bitio import bits_required, pack_codes, unpack_codes
from repro.errors import CompressionError, CorruptStreamError

__all__ = ["Mltc"]

_WORD = struct.Struct("<I")
_WORD_BYTES = 4
_WORD_MAX = 0xFFFFFFFF
# original length, channel count, epsilon, raw tail length
_HEADER = struct.Struct("<IBHB")
# samples, first value, segment count, residual width
_CHANNEL_HEADER = struct.Struct("<IIIB")
_SEGMENT = struct.Struct("<II")  # length, end anchor
# A residual of one 32-bit word against another zig-zags into 33 bits.
_MAX_RESIDUAL_WIDTH = 33
# float64 holds every integer up to 2**53 exactly.
_EXACT_FLOAT_INT = 1 << 53
_INF = float("inf")

# --- calibrated virtual-cost constants (see DESIGN.md) ------------------
# m0 split: word shuffle into channel buffers, read + write per byte.
_M0_INSTRUCTIONS_PER_BYTE = 0.9
_M0_ACCESSES_PER_BYTE = 2.0
# c_i encode: cone update per sample, segment bookkeeping, residual pack.
_C_INSTRUCTIONS_PER_UPDATE = 30.0
_C_INSTRUCTIONS_PER_SEGMENT = 110.0
_C_INSTRUCTIONS_PER_SAMPLE = 9.0
_C_ACCESSES_PER_SAMPLE = 1.6
_C_ACCESSES_PER_SEGMENT = 2.5
# mz merge: concatenate channel blobs and frame the payload.
_MZ_INSTRUCTIONS_PER_BYTE = 1.3
_MZ_INSTRUCTIONS_PER_CHANNEL = 50.0
_MZ_ACCESSES_PER_BYTE = 1.9


def _interpolate(
    bases: np.ndarray, ends: np.ndarray, offsets: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """``round(base + (end - base) * offset / length)`` per element,
    exactly as Python evaluates it on ints.

    The int64 product is exact, and float64 holds it exactly up to
    2**53, so numpy's true divide gives Python's correctly rounded
    int/int quotient, the add rounds like Python's int + float, and
    ``np.rint`` rounds half to even like ``round``. Larger products
    (only segments over 2**21 samples reach them) are divided as
    Python ints.
    """
    products = (ends - bases) * offsets
    quotients = products / lengths
    inexact = np.abs(products) > _EXACT_FLOAT_INT
    if inexact.any():
        quotients[inexact] = [
            product / length
            for product, length in zip(
                products[inexact].tolist(), lengths[inexact].tolist()
            )
        ]
    return np.rint(bases + quotients).astype(np.int64)


def _reconstruct(
    first: int,
    lengths: "np.ndarray | List[int]",
    ends: "np.ndarray | List[int]",
    count: int,
) -> np.ndarray:
    """Per-sample predictions from the chained segment anchors: each
    segment interpolates from the previous segment's end anchor (the
    first from ``first``) to its own. Encoder and decoder both call
    this, so the round trip is exact by construction."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    covered = 1 + int(lengths.sum())
    if covered != count:
        raise CorruptStreamError(
            f"mltc segment lengths cover {covered} samples, "
            f"expected {count}"
        )
    bases = np.empty_like(ends)
    bases[:1] = first
    bases[1:] = ends[:-1]
    segment_of = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.cumsum(lengths) - lengths
    offsets = np.arange(1, covered, dtype=np.int64) - starts[segment_of]
    predictions = np.empty(count, dtype=np.int64)
    predictions[0] = first
    predictions[1:] = _interpolate(
        bases[segment_of], ends[segment_of], offsets, lengths[segment_of]
    )
    return predictions


class Mltc(StreamCompressor):
    """Multi-channel LTC stream compressor.

    Parameters
    ----------
    channels:
        Number of interleaved 32-bit channels (default 2); one encode
        task per channel in the step graph.
    epsilon:
        LTC error-cone half-width (default 16). Larger values produce
        longer segments and wider residuals; the round-trip stays exact
        either way.
    """

    name = "mltc"
    stateful = False

    def __init__(self, channels: int = 2, epsilon: int = 16) -> None:
        if not 1 <= channels <= 16:
            raise CompressionError(
                f"mltc channels must be in [1, 16], got {channels}"
            )
        if epsilon < 0:
            raise CompressionError(
                f"mltc epsilon must be non-negative, got {epsilon}"
            )
        self.channels = channels
        self.epsilon = epsilon
        self._steps = (
            StepSpec("m0", StepRole.READ,
                     "de-interleave words into channel buffers"),
            *(
                StepSpec(f"c{index}", StepRole.ENCODE,
                         f"LTC-encode channel {index}")
                for index in range(1, channels + 1)
            ),
            StepSpec("mz", StepRole.WRITE,
                     "merge channel blobs into the framed payload"),
        )

    def steps(self) -> Tuple[StepSpec, ...]:
        return self._steps

    def step_dependencies(self) -> Mapping[str, Tuple[str, ...]]:
        encode_ids = tuple(
            f"c{index}" for index in range(1, self.channels + 1)
        )
        dependencies: Dict[str, Tuple[str, ...]] = {"m0": ()}
        for step_id in encode_ids:
            dependencies[step_id] = ("m0",)
        dependencies["mz"] = encode_ids
        return dependencies

    # --- encode ---------------------------------------------------------

    def compress(self, data: bytes) -> CompressionResult:
        word_count = len(data) // _WORD_BYTES
        tail = data[word_count * _WORD_BYTES:]
        words = np.frombuffer(data, dtype="<u4", count=word_count)
        channel_values = [
            words[channel::self.channels] for channel in range(self.channels)
        ]

        blobs: List[bytes] = []
        updates_per_channel: List[int] = []
        segments_per_channel: List[int] = []
        for values in channel_values:
            blob, updates, segments = self._encode_channel(values)
            blobs.append(blob)
            updates_per_channel.append(updates)
            segments_per_channel.append(segments)

        out = bytearray(
            _HEADER.pack(len(data), self.channels, self.epsilon, len(tail))
        )
        for blob in blobs:
            out.extend(_WORD.pack(len(blob)))
            out.extend(blob)
        out.extend(tail)
        payload = bytes(out)

        counters = {
            "input_bytes": float(len(data)),
            "words": float(word_count),
            "segments": float(sum(segments_per_channel)),
            "cone_updates": float(sum(updates_per_channel)),
            "mean_segment_length": (
                word_count / sum(segments_per_channel)
                if sum(segments_per_channel) else 0.0
            ),
        }
        step_costs = self._step_costs(
            input_bytes=len(data),
            payload_bytes=len(payload),
            channel_values=channel_values,
            blobs=blobs,
            updates_per_channel=updates_per_channel,
            segments_per_channel=segments_per_channel,
        )
        return CompressionResult(
            payload=payload,
            input_size=len(data),
            step_costs=step_costs,
            counters=counters,
        )

    def _encode_channel(self, values: np.ndarray) -> Tuple[bytes, int, int]:
        """LTC-encode one channel; returns (blob, cone updates, segments)."""
        n = len(values)
        if n == 0:
            return _CHANNEL_HEADER.pack(0, 0, 0, 0), 0, 0
        samples = values.tolist()
        epsilon = self.epsilon
        anchor = samples[0]
        lengths: List[int] = []
        ends: List[int] = []
        updates = 0
        start = 0
        last = n - 1
        while start < last:
            # Grow the error cone from (start, anchor) until it closes.
            # The first sample always fits, so the segment is never empty.
            upper = _INF
            lower = -_INF
            position = start + 1
            while position < n:
                span = position - start
                high = (samples[position] + epsilon - anchor) / span
                low = (samples[position] - epsilon - anchor) / span
                updates += 1
                # min(upper, high) and max(lower, low), ties included
                next_upper = high if high < upper else upper
                next_lower = low if low > lower else lower
                if next_lower > next_upper:
                    break
                upper = next_upper
                lower = next_lower
                position += 1
            length = position - 1 - start
            slope = (upper + lower) / 2.0
            end_anchor = round(anchor + slope * length)
            if end_anchor < 0:
                end_anchor = 0
            elif end_anchor > _WORD_MAX:
                end_anchor = _WORD_MAX
            lengths.append(length)
            ends.append(end_anchor)
            anchor = end_anchor
            start += length

        # Residuals against the reconstruction the decoder will compute,
        # zig-zag coded at the channel's worst-case width.
        predictions = _reconstruct(samples[0], lengths, ends, n)
        residuals = values.astype(np.int64) - predictions
        codes = np.where(
            residuals >= 0, 2 * residuals, -2 * residuals - 1
        ).astype(np.uint64)
        width = bits_required(int(codes.max()))

        blob = bytearray(
            _CHANNEL_HEADER.pack(n, samples[0], len(lengths), width)
        )
        segments = np.empty((len(lengths), 2), dtype="<u4")
        segments[:, 0] = lengths
        segments[:, 1] = ends
        blob.extend(segments.tobytes())
        blob.extend(pack_codes(codes, np.full(n, width, dtype=np.uint64)))
        return bytes(blob), updates, len(lengths)

    # --- decode ---------------------------------------------------------

    def decompress(self, payload: bytes) -> bytes:
        if len(payload) < _HEADER.size:
            raise CorruptStreamError("mltc stream shorter than its header")
        original, channels, _epsilon, tail_length = _HEADER.unpack_from(
            payload
        )
        if channels != self.channels:
            raise CorruptStreamError(
                f"mltc stream has {channels} channels, decoder expects "
                f"{self.channels}"
            )
        position = _HEADER.size
        # Samples the channels may still claim: the header's whole words.
        word_budget = original // _WORD_BYTES
        channel_values: List[np.ndarray] = []
        for _ in range(channels):
            if position + _WORD.size > len(payload):
                raise CorruptStreamError("mltc stream truncated at blob size")
            (blob_length,) = _WORD.unpack_from(payload, position)
            position += _WORD.size
            if position + blob_length > len(payload):
                raise CorruptStreamError("mltc channel blob exceeds stream")
            blob = payload[position:position + blob_length]
            position += blob_length
            values = self._decode_channel(blob, word_budget)
            word_budget -= len(values)
            channel_values.append(values)
        tail = payload[position:]
        if len(tail) != tail_length:
            raise CorruptStreamError(
                f"mltc trailing bytes {len(tail)} != promised {tail_length}"
            )

        word_count = sum(len(values) for values in channel_values)
        words = np.empty(word_count, dtype="<u4")
        for channel, values in enumerate(channel_values):
            if len(values) != len(range(channel, word_count, channels)):
                raise CorruptStreamError(
                    "mltc channel sample counts do not interleave"
                )
            words[channel::channels] = values
        out = words.tobytes() + tail
        if len(out) != original:
            raise CorruptStreamError(
                f"mltc decoded {len(out)} bytes, header promised {original}"
            )
        return out

    def _decode_channel(self, blob: bytes, max_count: int) -> np.ndarray:
        """One channel's samples; ``max_count`` bounds the sample count
        a well-formed stream can still hold, checked (with the residual
        bits the blob carries) before anything is sized by ``count``."""
        if len(blob) < _CHANNEL_HEADER.size:
            raise CorruptStreamError("mltc channel blob shorter than header")
        count, first, segment_count, width = _CHANNEL_HEADER.unpack_from(blob)
        if count > max_count:
            raise CorruptStreamError(
                f"mltc channel claims {count} samples, the header leaves "
                f"room for {max_count}"
            )
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if width > _MAX_RESIDUAL_WIDTH:
            raise CorruptStreamError(
                f"mltc residual width {width} exceeds {_MAX_RESIDUAL_WIDTH}"
            )
        position = _CHANNEL_HEADER.size
        residual_start = position + segment_count * _SEGMENT.size
        if residual_start > len(blob):
            raise CorruptStreamError("mltc blob truncated in segments")
        if count * width > 8 * (len(blob) - residual_start):
            raise CorruptStreamError(
                f"mltc blob holds too few bits for {count} codes of "
                f"{width} bits"
            )
        segments = np.frombuffer(
            blob, dtype="<u4", count=2 * segment_count, offset=position
        ).reshape(segment_count, 2)
        predictions = _reconstruct(first, segments[:, 0], segments[:, 1], count)
        codes = unpack_codes(blob[residual_start:], width, count)
        # Zig-zag decode: even codes are r >= 0, odd codes are r < 0.
        halves = (codes >> np.uint64(1)).astype(np.int64)
        signs = (codes & np.uint64(1)).astype(np.int64)
        values = predictions + (halves ^ -signs)
        if values.min() < 0 or values.max() > _WORD_MAX:
            raise CorruptStreamError("mltc residual decodes outside 32 bits")
        return values

    # --- cost model -----------------------------------------------------

    def _step_costs(
        self,
        input_bytes: int,
        payload_bytes: int,
        channel_values: List[np.ndarray],
        blobs: List[bytes],
        updates_per_channel: List[int],
        segments_per_channel: List[int],
    ) -> Dict[str, StepCost]:
        costs: Dict[str, StepCost] = {
            "m0": StepCost(
                instructions=_M0_INSTRUCTIONS_PER_BYTE * input_bytes,
                memory_accesses=_M0_ACCESSES_PER_BYTE * input_bytes,
                input_bytes=input_bytes,
                output_bytes=input_bytes,
            )
        }
        for index in range(self.channels):
            samples = len(channel_values[index])
            channel_bytes = samples * _WORD_BYTES
            costs[f"c{index + 1}"] = StepCost(
                instructions=(
                    _C_INSTRUCTIONS_PER_UPDATE * updates_per_channel[index]
                    + _C_INSTRUCTIONS_PER_SEGMENT
                    * segments_per_channel[index]
                    + _C_INSTRUCTIONS_PER_SAMPLE * samples
                ),
                memory_accesses=(
                    _C_ACCESSES_PER_SAMPLE * samples
                    + _C_ACCESSES_PER_SEGMENT * segments_per_channel[index]
                ),
                input_bytes=channel_bytes,
                output_bytes=len(blobs[index]),
            )
        blob_bytes = sum(len(blob) for blob in blobs)
        costs["mz"] = StepCost(
            instructions=(
                _MZ_INSTRUCTIONS_PER_BYTE * payload_bytes
                + _MZ_INSTRUCTIONS_PER_CHANNEL * self.channels
            ),
            memory_accesses=_MZ_ACCESSES_PER_BYTE * payload_bytes,
            input_bytes=blob_bytes,
            output_bytes=payload_bytes,
        )
        return costs
