"""lz4 — LZ77-family stateful compression (paper Algorithm 5).

This is a real encoder/decoder for the LZ4 *block* format: greedy parsing
with a hash table keyed on 4-byte prefixes, sequences of
``token | literal-length extension | literals | offset | match-length
extension``, and an all-literal final sequence. A 4-byte little-endian
original-length header frames each block (the paper compresses batch by
batch; each batch is one block, so the hash-table state — the paper's
``tb``, ``literal`` and ``buffer`` — lives for the duration of a block).

Step decomposition (Algorithm 3):

* ``s0`` read — append bytes to the search buffer;
* ``s1`` pre-process — hash the 4-byte prefix at each scan position;
* ``s2`` state update — read/overwrite the hash-table slot and trim the
  window (memory-bound, cost shrinks with vocabulary duplication because
  matched spans skip updates);
* ``s3`` state-based encoding — match expansion ("backward searching");
  cost grows with duplication via matched bytes and per-match setup;
* ``s4`` write — token/literal emission, cost tracks output volume.

The opposing trends of ``s2`` and ``s3`` under vocabulary duplication are
what Fig 12 of the paper studies.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.base import CompressionResult, StatefulCompressor, StepCost
from repro.errors import CompressionError, CorruptStreamError

__all__ = ["Lz4"]

_HEADER = struct.Struct("<I")
_MIN_MATCH = 4
_MAX_OFFSET = 0xFFFF
# Positions closer than this to the end are emitted as literals, matching
# the reference implementation's end-of-block conditions.
_MATCH_SEARCH_MARGIN = 12
_TOKEN_MAX = 15

# --- calibrated virtual-cost constants (see DESIGN.md) ------------------
_S0_INSTRUCTIONS_PER_BYTE = 2.5
_S0_ACCESSES_PER_BYTE = 0.35
_S1_INSTRUCTIONS_PER_PROBE = 60.0
_S1_INSTRUCTIONS_PER_BYTE = 8.0
_S1_ACCESSES_PER_PROBE = 0.24
_S1_ACCESSES_PER_BYTE = 0.02
_S2_INSTRUCTIONS_PER_UPDATE = 48.0
_S2_INSTRUCTIONS_PER_BYTE = 16.0
_S2_ACCESSES_PER_UPDATE = 4.0
_S2_ACCESSES_PER_BYTE = 0.6
_S3_INSTRUCTIONS_PER_MATCH_BYTE = 40.0
_S3_INSTRUCTIONS_PER_MATCH = 1000.0
_S3_INSTRUCTIONS_PER_BYTE = 12.0
_S3_ACCESSES_PER_MATCH_BYTE = 0.24
_S3_ACCESSES_PER_MATCH = 6.0
_S3_ACCESSES_PER_BYTE = 0.08
_S4_INSTRUCTIONS_PER_OUTPUT_BYTE = 150.0
_S4_INSTRUCTIONS_PER_TOKEN = 32.0
_S4_ACCESSES_PER_OUTPUT_BYTE = 1.5
_S4_ACCESSES_PER_TOKEN = 0.3
# (position, slot) descriptors flowing between the pipeline steps
_DESCRIPTOR_BYTES_PER_PROBE = 5


def _prefix_words(data: bytes, limit: int) -> np.ndarray:
    """The 4 little-endian bytes at every position in ``[0, limit)`` as
    one ``uint32`` array.

    Positions up to ``limit - 1`` read 4 bytes each, which stays in
    bounds because ``limit`` excludes the :data:`_MATCH_SEARCH_MARGIN`
    tail.
    """
    if limit <= 0:
        return np.empty(0, dtype=np.uint32)
    raw = np.frombuffer(data, dtype=np.uint8)
    words = raw[0:limit].astype(np.uint32)
    words |= raw[1:limit + 1].astype(np.uint32) << np.uint32(8)
    words |= raw[2:limit + 2].astype(np.uint32) << np.uint32(16)
    words |= raw[3:limit + 3].astype(np.uint32) << np.uint32(24)
    return words


def _hash_all(words: np.ndarray, index_bits: int) -> list:
    """Multiplicative hash of every prefix word: ``((word * 2654435761)
    & 0xFFFFFFFF) >> (32 - index_bits)``, one numpy pass in uint32,
    whose multiplication wraps exactly like the mask."""
    hashes = words * np.uint32(2654435761)
    hashes >>= np.uint32(32 - index_bits)
    return hashes.tolist()


def _write_length(out: bytearray, length: int) -> None:
    """LZ4 extended-length encoding: bytes of 255 then a final byte."""
    while length >= 255:
        out.append(255)
        length -= 255
    out.append(length)


class Lz4(StatefulCompressor):
    """LZ4 block-format stream compressor.

    Parameters
    ----------
    index_bits:
        log2 of the hash-table size (default 12).
    max_search_length:
        The paper's ``ml``: matches longer than this are split. ``None``
        (default) leaves match length unbounded, like reference lz4.
    """

    name = "lz4"

    def __init__(self, index_bits: int = 12, max_search_length: int = None) -> None:
        if not 1 <= index_bits <= 24:
            raise CompressionError(
                f"lz4 index_bits must be in [1, 24], got {index_bits}"
            )
        if max_search_length is not None and max_search_length < _MIN_MATCH:
            raise CompressionError(
                f"lz4 max_search_length must be >= {_MIN_MATCH}"
            )
        self.index_bits = index_bits
        self.max_search_length = max_search_length

    def compress(self, data: bytes) -> CompressionResult:
        out = bytearray(_HEADER.pack(len(data)))
        n = len(data)
        table = [-1] * (1 << self.index_bits)
        max_search_length = self.max_search_length

        probes = 0  # every probe also overwrites its table slot
        matches = 0
        matched_bytes = 0

        anchor = 0  # start of the pending literal run
        position = 0
        search_limit = n - _MATCH_SEARCH_MARGIN
        prefixes = _prefix_words(data, search_limit)
        hashes = _hash_all(prefixes, self.index_bits)
        # A candidate matches when its 4-byte prefix word does. The
        # memoryview hands out plain ints without a second list.
        words = memoryview(prefixes)
        while position < search_limit:
            slot = hashes[position]
            probes += 1
            candidate = table[slot]
            table[slot] = position
            if (
                candidate < 0
                or position - candidate > _MAX_OFFSET
                or words[candidate] != words[position]
            ):
                position += 1
                continue
            # "Expand searching in buffer": extend the verified 4-byte
            # seed forward, capped by the search margin and by the
            # paper's ml.
            max_length = search_limit - position
            if max_search_length is not None and max_search_length < max_length:
                max_length = max_search_length
            length = _MIN_MATCH
            while (
                length < max_length
                and data[candidate + length] == data[position + length]
            ):
                length += 1
            # Sequence: token, literal-length extension, literals,
            # little-endian offset, match-length extension.
            literal_length = position - anchor
            match_code = length - _MIN_MATCH
            out.append(
                (literal_length if literal_length < _TOKEN_MAX else _TOKEN_MAX)
                << 4
                | (match_code if match_code < _TOKEN_MAX else _TOKEN_MAX)
            )
            if literal_length >= _TOKEN_MAX:
                _write_length(out, literal_length - _TOKEN_MAX)
            out += data[anchor:position]
            offset = position - candidate
            out.append(offset & 0xFF)
            out.append(offset >> 8)
            if match_code >= _TOKEN_MAX:
                _write_length(out, match_code - _TOKEN_MAX)
            matches += 1
            matched_bytes += length
            position += length
            anchor = position

        # Final all-literal sequence (always present, even if empty, so the
        # decoder can terminate on a literals-only token).
        literal_length = n - anchor
        token_literals = min(literal_length, _TOKEN_MAX)
        out.append(token_literals << 4)
        if literal_length >= _TOKEN_MAX:
            _write_length(out, literal_length - _TOKEN_MAX)
        out.extend(data[anchor:])
        tokens = matches + 1

        payload = bytes(out)
        counters = {
            "input_bytes": float(n),
            "probes": float(probes),
            "table_updates": float(probes),
            "matches": float(matches),
            "matched_bytes": float(matched_bytes),
            "literal_bytes": float(n - matched_bytes),
            "tokens": float(tokens),
            "matched_fraction": matched_bytes / n if n else 0.0,
        }
        step_costs = self._step_costs(
            n, probes, probes, matches, matched_bytes, tokens, len(payload)
        )
        return CompressionResult(
            payload=payload,
            input_size=n,
            step_costs=step_costs,
            counters=counters,
        )

    def decompress(self, payload: bytes) -> bytes:
        if len(payload) < _HEADER.size:
            raise CorruptStreamError("lz4 stream shorter than its header")
        (expected,) = _HEADER.unpack_from(payload)
        src = payload[_HEADER.size:]
        out = bytearray()
        position = 0
        while len(out) < expected or position < len(src):
            if position >= len(src):
                raise CorruptStreamError("lz4 stream truncated mid-sequence")
            token = src[position]
            position += 1
            literal_length = token >> 4
            if literal_length == _TOKEN_MAX:
                literal_length, position = self._read_length(
                    src, position, literal_length
                )
            if position + literal_length > len(src):
                raise CorruptStreamError("lz4 literal run exceeds stream")
            out.extend(src[position:position + literal_length])
            position += literal_length
            if len(out) >= expected:
                break  # final literals-only sequence
            if position + 2 > len(src):
                raise CorruptStreamError("lz4 stream truncated at match offset")
            offset = int.from_bytes(src[position:position + 2], "little")
            position += 2
            if offset == 0 or offset > len(out):
                raise CorruptStreamError(f"lz4 invalid match offset {offset}")
            match_length = (token & 0x0F) + _MIN_MATCH
            if (token & 0x0F) == _TOKEN_MAX:
                extra, position = self._read_length(src, position, 0)
                match_length += extra
            # Byte-wise copy: matches may overlap their own output.
            start = len(out) - offset
            for i in range(match_length):
                out.append(out[start + i])
        if len(out) != expected:
            raise CorruptStreamError(
                f"lz4 decoded {len(out)} bytes, header promised {expected}"
            )
        return bytes(out)

    @staticmethod
    def _read_length(src: bytes, position: int, base: int):
        length = base
        while True:
            if position >= len(src):
                raise CorruptStreamError("lz4 stream truncated in length field")
            byte = src[position]
            position += 1
            length += byte
            if byte != 255:
                return length, position

    def _step_costs(
        self,
        input_bytes: int,
        probes: int,
        updates: int,
        matches: int,
        matched_bytes: int,
        tokens: int,
        output_bytes: int,
    ) -> dict:
        descriptor_bytes = probes * _DESCRIPTOR_BYTES_PER_PROBE
        s0 = StepCost(
            instructions=_S0_INSTRUCTIONS_PER_BYTE * input_bytes,
            memory_accesses=_S0_ACCESSES_PER_BYTE * input_bytes,
            input_bytes=input_bytes,
            output_bytes=input_bytes,
        )
        s1 = StepCost(
            instructions=(
                _S1_INSTRUCTIONS_PER_PROBE * probes
                + _S1_INSTRUCTIONS_PER_BYTE * input_bytes
            ),
            memory_accesses=(
                _S1_ACCESSES_PER_PROBE * probes
                + _S1_ACCESSES_PER_BYTE * input_bytes
            ),
            input_bytes=input_bytes,
            output_bytes=descriptor_bytes,
        )
        s2 = StepCost(
            instructions=(
                _S2_INSTRUCTIONS_PER_UPDATE * updates
                + _S2_INSTRUCTIONS_PER_BYTE * input_bytes
            ),
            memory_accesses=(
                _S2_ACCESSES_PER_UPDATE * updates
                + _S2_ACCESSES_PER_BYTE * input_bytes
            ),
            input_bytes=descriptor_bytes,
            output_bytes=descriptor_bytes,
        )
        s3 = StepCost(
            instructions=(
                _S3_INSTRUCTIONS_PER_MATCH_BYTE * matched_bytes
                + _S3_INSTRUCTIONS_PER_MATCH * matches
                + _S3_INSTRUCTIONS_PER_BYTE * input_bytes
            ),
            memory_accesses=(
                _S3_ACCESSES_PER_MATCH_BYTE * matched_bytes
                + _S3_ACCESSES_PER_MATCH * matches
            ),
            input_bytes=descriptor_bytes,
            output_bytes=descriptor_bytes,
        )
        s4 = StepCost(
            instructions=(
                _S4_INSTRUCTIONS_PER_OUTPUT_BYTE * output_bytes
                + _S4_INSTRUCTIONS_PER_TOKEN * tokens
            ),
            memory_accesses=(
                _S4_ACCESSES_PER_OUTPUT_BYTE * output_bytes
                + _S4_ACCESSES_PER_TOKEN * tokens
            ),
            input_bytes=descriptor_bytes,
            output_bytes=output_bytes,
        )
        return {"s0": s0, "s1": s1, "s2": s2, "s3": s3, "s4": s4}
