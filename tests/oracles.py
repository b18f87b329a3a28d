"""Scalar reference implementations the test suite checks ``src`` against.

The package ships one implementation per mechanism — the vectorized
codec encoders, lz4's numpy hashing, the array-pass dataset generators
and the table-driven cost model.
The straightforward loops they replaced live here, so parity tests can
compare both on the same inputs without a second path in the package:

* :func:`hash4` — lz4's multiplicative hash of one 4-byte prefix;
* :func:`tcomp32_reference` — Algorithm 2 word by word over a
  :class:`~repro.compression.bitio.BitWriter`;
* :class:`Tdic32Reference` — Algorithm 4 word by word, table read then
  overwrite;
* :class:`Lz4Reference` — lz4's greedy parse verifying each candidate
  with a 4-byte slice compare, one helper call per match;
* :class:`MltcReference` — mltc's split, encoder and decoder one sample
  at a time through :func:`predict_reference`;
* :func:`sensor_reference`, :func:`stock_reference` and
  :func:`micro_symbol_reference` — the dataset generators' per-tuple
  loops over numpy scalars, drawing the same arrays in the same order;
* :func:`evaluate_reference` — Eqs 1-7 per replica straight from the
  fitted curves and the communication table, no lookup tables, built
  on :func:`compute_latency_reference` and :func:`task_energy_reference`.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

import numpy as np

from repro.compression.base import CompressionResult
from repro.compression.bitio import BitReader, BitWriter, bits_required
from repro.compression.lz4 import (
    _HEADER as _LZ4_HEADER,
    _MATCH_SEARCH_MARGIN,
    _MAX_OFFSET,
    _MIN_MATCH,
    _TOKEN_MAX,
    Lz4,
    _write_length,
)
from repro.compression.mltc import (
    _CHANNEL_HEADER,
    _HEADER as _MLTC_HEADER,
    _SEGMENT,
    _WORD_BYTES,
    _WORD_MAX,
    Mltc,
)
from repro.compression.tdic32 import tdic32_hash
from repro.core.plan import PlanEstimate, SchedulingPlan, TaskEstimate
from repro.errors import CorruptStreamError
from repro.simcore.hardware import replication_factor

_HEADER = struct.Struct("<I")
_TCOMP32_LENGTH_BITS = 5
_TDIC32_LITERAL_BITS = 32


def hash4(data: bytes, position: int, index_bits: int) -> int:
    """Multiplicative hash of the 4 bytes at ``position``."""
    word = int.from_bytes(data[position:position + 4], "little")
    return ((word * 2654435761) & 0xFFFFFFFF) >> (32 - index_bits)


def tcomp32_reference(data: bytes) -> Tuple[bytes, int]:
    """tcomp32 payload and total significant bits, one word at a time."""
    words = np.frombuffer(data, dtype=np.uint32)
    writer = BitWriter()
    writer.write_bytes(_HEADER.pack(len(words)))
    total_significant_bits = 0
    for number in words.tolist():
        n = 1 if number == 0 else number.bit_length()
        total_significant_bits += n
        writer.write(n - 1, _TCOMP32_LENGTH_BITS)
        writer.write(number, n)
    return writer.getvalue(), total_significant_bits


class Tdic32Reference:
    """tdic32's encoder as a sequential loop over one dictionary."""

    def __init__(self, index_bits: int = 12) -> None:
        self.index_bits = index_bits
        self.table = np.full(1 << index_bits, -1, dtype=np.int64)

    def compress(self, data: bytes) -> Tuple[bytes, int]:
        """Payload and hit count; the table carries over to the next call."""
        words = np.frombuffer(data, dtype=np.uint32)
        writer = BitWriter()
        writer.write_bytes(_HEADER.pack(len(words)))
        table = self.table
        index_bits = self.index_bits
        hits = 0
        for number in words.tolist():
            slot = tdic32_hash(number, index_bits)
            previous = table[slot]
            table[slot] = number
            if previous == number:
                hits += 1
                writer.write(1, 1)
                writer.write(slot, index_bits)
            else:
                writer.write(0, 1)
                writer.write(number, _TDIC32_LITERAL_BITS)
        return writer.getvalue(), hits


def compute_latency_reference(
    model, stage: int, core_id: int, replicas: int
) -> float:
    """Eq 6 l_comp of one replica from the fitted η curve."""
    eta = model._eta(model.stage_kappa(stage), core_id)
    instructions = model.stage_instructions(stage) / replicas
    overhead = replication_factor(
        model.board.replication_latency_overhead, replicas
    )
    scale = model.latency_scale.get(stage, 1.0)
    return (
        scale * instructions * overhead / eta
        / model.profile.batch_size_bytes
    )


def task_energy_reference(
    model, stage: int, core_id: int, replicas: int
) -> float:
    """Eq 4 computation energy of one replica from the fitted ζ curve."""
    zeta = model._zeta(model.stage_kappa(stage), core_id)
    instructions = model.stage_instructions(stage) / replicas
    overhead = replication_factor(
        model.board.replication_energy_overhead, replicas
    )
    return instructions * overhead / zeta / model.profile.batch_size_bytes


def _communication(
    model, producer_stage: int, core_id: int, upstream_cores, replicas: int
) -> Tuple[float, float]:
    """(l_comm, e_comm) of one replica from one producer stage."""
    if not model.communication_aware:
        return 0.0, 0.0
    table = model.communication
    share = (
        model.stage_output_bytes(producer_stage)
        / replicas
        / len(upstream_cores)
    )
    total_us = 0.0
    total_uj = 0.0
    for producer_core in upstream_cores:
        path = model.board.path_between(producer_core, core_id)
        total_us += share * table.unit_cost(path)
        total_us += table.overhead(path)
        total_uj += table.energy(path)
    batch = model.profile.batch_size_bytes
    return total_us / batch, total_uj / batch


def evaluate_reference(model, plan: SchedulingPlan) -> PlanEstimate:
    """:meth:`CostModel.evaluate` without the lookup tables."""
    estimates = []
    core_load: Dict[int, float] = {}
    for stage, cores in enumerate(plan.assignments):
        replicas = len(cores)
        for replica_index, core_id in enumerate(cores):
            l_comp = compute_latency_reference(
                model, stage, core_id, replicas
            )
            l_comm = 0.0
            e_comm = 0.0
            for producer_stage in plan.graph.predecessors_of(stage):
                latency, energy = _communication(
                    model, producer_stage, core_id,
                    plan.assignments[producer_stage], replicas,
                )
                l_comm += latency
                e_comm += energy
            estimates.append(
                TaskEstimate(
                    stage_index=stage,
                    replica_index=replica_index,
                    core_id=core_id,
                    kappa=model.stage_kappa(stage),
                    l_comp_us_per_byte=l_comp,
                    l_comm_us_per_byte=l_comm,
                    energy_uj_per_byte=(
                        task_energy_reference(model, stage, core_id, replicas)
                        + e_comm
                    ),
                )
            )
            core_load[core_id] = core_load.get(core_id, 0.0) + l_comp
    return _finish_reference(model, plan, estimates, core_load)


def _finish_reference(model, plan, estimates, core_load) -> PlanEstimate:
    """Eqs 1-3 and the critical path folded over built estimates."""
    latency = max(
        max(est.l_us_per_byte for est in estimates),
        max(core_load.values()),
    )
    energy = 0.0
    for est in estimates:
        energy += est.energy_uj_per_byte
    stage_latency: Dict[int, float] = {}
    for est in estimates:
        if est.l_us_per_byte > stage_latency.get(est.stage_index, 0.0):
            stage_latency[est.stage_index] = est.l_us_per_byte
    path_to: Dict[int, float] = {}
    for stage in range(plan.graph.stage_count):
        longest_producer = 0.0
        for producer in plan.graph.predecessors_of(stage):
            longest_producer = max(longest_producer, path_to[producer])
        path_to[stage] = stage_latency.get(stage, 0.0) + longest_producer
    budget = model.guard_band * model.latency_constraint_us_per_byte
    reason = ""
    if latency > budget:
        reason = f"L_est {latency:.2f} µs/B exceeds budget {budget:.2f} µs/B"
    return PlanEstimate(
        plan=plan,
        task_estimates=tuple(estimates),
        latency_us_per_byte=latency,
        energy_uj_per_byte=energy,
        feasible=not reason,
        infeasibility_reason=reason,
        core_load_us_per_byte=core_load,
        critical_path_us_per_byte=path_to[plan.graph.stage_count - 1],
    )


class Lz4Reference(Lz4):
    """lz4's greedy parse with a per-position scalar hash, a 4-byte slice
    compare per candidate and helper calls per match."""

    def _expand_match(
        self, data: bytes, candidate: int, position: int, limit: int
    ) -> int:
        length = _MIN_MATCH
        max_length = limit - position
        if self.max_search_length is not None:
            max_length = min(max_length, self.max_search_length)
        while (
            length < max_length
            and data[candidate + length] == data[position + length]
        ):
            length += 1
        return length

    @staticmethod
    def _emit_sequence(
        out: bytearray,
        data: bytes,
        anchor: int,
        position: int,
        offset: int,
        match_length: int,
    ) -> None:
        literal_length = position - anchor
        token_literals = min(literal_length, _TOKEN_MAX)
        token_match = min(match_length - _MIN_MATCH, _TOKEN_MAX)
        out.append((token_literals << 4) | token_match)
        if literal_length >= _TOKEN_MAX:
            _write_length(out, literal_length - _TOKEN_MAX)
        out.extend(data[anchor:position])
        out.extend(offset.to_bytes(2, "little"))
        if match_length - _MIN_MATCH >= _TOKEN_MAX:
            _write_length(out, match_length - _MIN_MATCH - _TOKEN_MAX)

    def compress(self, data: bytes) -> CompressionResult:
        out = bytearray(_LZ4_HEADER.pack(len(data)))
        n = len(data)
        table = [-1] * (1 << self.index_bits)
        probes = updates = matches = matched_bytes = tokens = 0
        anchor = 0
        position = 0
        search_limit = n - _MATCH_SEARCH_MARGIN
        while position < search_limit:
            slot = hash4(data, position, self.index_bits)
            probes += 1
            candidate = table[slot]
            table[slot] = position
            updates += 1
            if (
                candidate >= 0
                and position - candidate <= _MAX_OFFSET
                and data[candidate:candidate + _MIN_MATCH]
                == data[position:position + _MIN_MATCH]
            ):
                length = self._expand_match(
                    data, candidate, position, search_limit
                )
                self._emit_sequence(
                    out, data, anchor, position, position - candidate, length
                )
                tokens += 1
                matches += 1
                matched_bytes += length
                position += length
                anchor = position
            else:
                position += 1
        literal_length = n - anchor
        out.append(min(literal_length, _TOKEN_MAX) << 4)
        if literal_length >= _TOKEN_MAX:
            _write_length(out, literal_length - _TOKEN_MAX)
        out.extend(data[anchor:])
        tokens += 1
        payload = bytes(out)
        counters = {
            "input_bytes": float(n),
            "probes": float(probes),
            "table_updates": float(updates),
            "matches": float(matches),
            "matched_bytes": float(matched_bytes),
            "literal_bytes": float(n - matched_bytes),
            "tokens": float(tokens),
            "matched_fraction": matched_bytes / n if n else 0.0,
        }
        step_costs = self._step_costs(
            n, probes, updates, matches, matched_bytes, tokens, len(payload)
        )
        return CompressionResult(
            payload=payload,
            input_size=n,
            step_costs=step_costs,
            counters=counters,
        )


def predict_reference(base: int, end: int, offset: int, length: int) -> int:
    """mltc's linear interpolation in Python ints and floats."""
    return round(base + (end - base) * offset / length)


def _zigzag(value: int) -> int:
    return 2 * value if value >= 0 else -2 * value - 1


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


class MltcReference(Mltc):
    """mltc with every split, predictor and residual handled per sample."""

    def compress(self, data: bytes) -> CompressionResult:
        word_count = len(data) // _WORD_BYTES
        tail = data[word_count * _WORD_BYTES:]
        channel_values: List[List[int]] = [[] for _ in range(self.channels)]
        for index in range(word_count):
            (value,) = struct.unpack_from("<I", data, index * _WORD_BYTES)
            channel_values[index % self.channels].append(value)
        blobs: List[bytes] = []
        updates_per_channel: List[int] = []
        segments_per_channel: List[int] = []
        for values in channel_values:
            blob, updates, segments = self._encode_channel(values)
            blobs.append(blob)
            updates_per_channel.append(updates)
            segments_per_channel.append(segments)
        out = bytearray(
            _MLTC_HEADER.pack(len(data), self.channels, self.epsilon, len(tail))
        )
        for blob in blobs:
            out.extend(struct.pack("<I", len(blob)))
            out.extend(blob)
        out.extend(tail)
        payload = bytes(out)
        segment_total = sum(segments_per_channel)
        counters = {
            "input_bytes": float(len(data)),
            "words": float(word_count),
            "segments": float(segment_total),
            "cone_updates": float(sum(updates_per_channel)),
            "mean_segment_length": (
                word_count / segment_total if segment_total else 0.0
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

    def _encode_channel(self, values: List[int]) -> Tuple[bytes, int, int]:
        n = len(values)
        if n == 0:
            return _CHANNEL_HEADER.pack(0, 0, 0, 0), 0, 0
        epsilon = self.epsilon
        anchor = values[0]
        segments: List[Tuple[int, int]] = []
        updates = 0
        start = 0
        while start < n - 1:
            upper = float("inf")
            lower = float("-inf")
            end = start + 1
            position = start + 1
            while position < n:
                span = position - start
                high = (values[position] + epsilon - anchor) / span
                low = (values[position] - epsilon - anchor) / span
                updates += 1
                next_upper = min(upper, high)
                next_lower = max(lower, low)
                if next_lower > next_upper:
                    break
                upper, lower = next_upper, next_lower
                end = position
                position += 1
            length = end - start
            slope = (upper + lower) / 2.0
            end_anchor = round(anchor + slope * length)
            end_anchor = min(max(end_anchor, 0), _WORD_MAX)
            segments.append((length, end_anchor))
            anchor = end_anchor
            start = end
        predictions = self.reconstruct_reference(values[0], segments, n)
        residuals = [value - predicted
                     for value, predicted in zip(values, predictions)]
        width = max(bits_required(_zigzag(r)) for r in residuals)
        writer = BitWriter()
        for residual in residuals:
            writer.write(_zigzag(residual), width)
        blob = bytearray(
            _CHANNEL_HEADER.pack(n, values[0], len(segments), width)
        )
        for length, end_anchor in segments:
            blob.extend(_SEGMENT.pack(length, end_anchor))
        blob.extend(writer.getvalue())
        return bytes(blob), updates, len(segments)

    @staticmethod
    def reconstruct_reference(
        first: int, segments: List[Tuple[int, int]], count: int
    ) -> List[int]:
        predictions = [first]
        anchor = first
        for length, end_anchor in segments:
            for offset in range(1, length + 1):
                predictions.append(
                    predict_reference(anchor, end_anchor, offset, length)
                )
            anchor = end_anchor
        if len(predictions) != count:
            raise CorruptStreamError(
                f"mltc segment lengths cover {len(predictions)} samples, "
                f"expected {count}"
            )
        return predictions

    def decode_channel_reference(self, blob: bytes) -> List[int]:
        """One channel blob back to its samples, one residual read at a
        time."""
        count, first, segment_count, width = _CHANNEL_HEADER.unpack_from(blob)
        if count == 0:
            return []
        position = _CHANNEL_HEADER.size
        segments = []
        for _ in range(segment_count):
            segments.append(_SEGMENT.unpack_from(blob, position))
            position += _SEGMENT.size
        predictions = self.reconstruct_reference(first, segments, count)
        reader = BitReader(blob[position:])
        return [predicted + _unzigzag(reader.read(width))
                for predicted in predictions]


def sensor_reference(dataset, tuple_count: int, rng) -> bytes:
    """``SensorDataset._generate_tuples`` with a numpy-scalar clip per
    record."""
    if tuple_count == 0:
        return b""
    values = rng.integers(10_000, 60_000, size=dataset.station_count)
    steps = rng.integers(
        -dataset.value_walk_step, dataset.value_walk_step + 1, size=tuple_count
    )
    stations = rng.integers(0, dataset.station_count, size=tuple_count)
    records = []
    for i in range(tuple_count):
        station = int(stations[i])
        values[station] = int(np.clip(values[station] + steps[i], 0, 99_999))
        records.append("<s%04d v=%05d/>" % (station, values[station]))
    return "".join(records).encode("ascii")


def stock_reference(dataset, tuple_count: int, rng) -> bytes:
    """``StockDataset._generate_tuples`` walking prices in an int64
    array."""
    if tuple_count == 0:
        return b""
    gaps = rng.integers(1, 8, size=tuple_count, dtype=np.uint32)
    keys = (np.cumsum(gaps, dtype=np.uint64) + (1 << 20)).astype(np.uint32)
    instruments = rng.integers(0, dataset.instrument_count, size=tuple_count)
    steps = rng.integers(
        -dataset.price_step, dataset.price_step + 1, size=tuple_count
    )
    prices = np.full(dataset.instrument_count, dataset.base_price, dtype=np.int64)
    payloads = np.empty(tuple_count, dtype=np.uint32)
    for i in range(tuple_count):
        instrument = instruments[i]
        prices[instrument] = max(1, prices[instrument] + steps[i])
        payloads[i] = prices[instrument] & 0xFFFFFFFF
    tuples = np.empty(tuple_count * 2, dtype=np.uint32)
    tuples[0::2] = keys
    tuples[1::2] = payloads
    return tuples.tobytes()


def micro_symbol_reference(dataset, tuple_count: int, rng) -> bytes:
    """``MicroDataset._generate_symbol_stream`` indexing numpy arrays
    per symbol."""
    fresh = rng.integers(
        0, dataset.dynamic_range, size=tuple_count, dtype=np.uint32
    )
    if dataset.symbol_duplication <= 0.0:
        return fresh.tobytes()
    values = np.empty(tuple_count, dtype=np.uint32)
    reuse = rng.random(tuple_count) < dataset.symbol_duplication
    pool_picks = rng.integers(0, 512, size=tuple_count)
    pool = fresh[rng.integers(0, tuple_count, size=512)].copy()
    for i in range(tuple_count):
        if reuse[i] and i > 0:
            values[i] = pool[pool_picks[i]]
        else:
            values[i] = fresh[i]
            pool[pool_picks[i]] = fresh[i]
    return values.tobytes()
