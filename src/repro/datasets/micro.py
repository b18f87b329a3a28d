"""Micro: the paper's controllable synthetic dataset of 32-bit values.

Each tuple is one 32-bit plain value. Three knobs, matching §VII-B's
sensitivity axes, can be tuned independently:

* ``dynamic_range`` — values are drawn uniformly from ``[0, range)``, so
  the mean significant-bit count (what tcomp32's output tracks) follows
  directly;
* ``symbol_duplication`` — target fraction of 32-bit symbols that repeat
  a recently emitted symbol (what tdic32's dictionary hit rate tracks);
* ``vocabulary_duplication`` — target fraction of 64-bit vocabularies
  (aligned symbol pairs) that repeat an earlier vocabulary within lz4's
  window (what lz4's match rate tracks).

Duplication is produced by re-emitting entries from a bounded recency
pool, so repeats land well inside both tdic32's hash table lifetime and
lz4's 64 KiB offset window.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.errors import DatasetError

__all__ = ["MicroDataset", "DRIFT_KINDS", "drift_schedule"]

_POOL_SIZE = 512

#: drift-scenario shapes for the online control loop's experiments
DRIFT_KINDS = ("ramp", "burst", "phase-shift")


def drift_schedule(
    kind: str,
    batches: int,
    low: int = 500,
    high: int = 50_000,
    change_at: int = None,
    burst_batches: int = None,
) -> tuple:
    """Per-batch ``dynamic_range`` values for a drifting Micro stream.

    Three canonical shapes (§VII-B's sensitivity knob swept over time):

    * ``ramp`` — geometric interpolation from ``low`` to ``high`` across
      the whole stream (slow continuous drift);
    * ``burst`` — ``low`` everywhere except ``burst_batches`` batches of
      ``high`` starting at ``change_at`` (transient spike the controller
      should *not* chase);
    * ``phase-shift`` — ``low`` before ``change_at``, ``high`` after
      (the Fig 9 step change: a durable regime switch worth migrating
      for).

    Purely arithmetic — no RNG — so schedules are trivially
    deterministic; the dataset seeds do the randomizing.
    """
    if batches < 1:
        raise DatasetError("drift schedule needs at least one batch")
    if low < 2 or high < 2:
        raise DatasetError("dynamic ranges must be >= 2")
    if change_at is None:
        change_at = batches // 3
    if burst_batches is None:
        burst_batches = max(batches // 6, 1)
    if not 0 <= change_at <= batches:
        raise DatasetError(f"change_at must be in [0, {batches}]")
    if kind == "ramp":
        if batches == 1:
            return (low,)
        ratio = (high / low) ** (1.0 / (batches - 1))
        return tuple(
            int(round(low * ratio ** index)) for index in range(batches)
        )
    if kind == "burst":
        return tuple(
            high if change_at <= index < change_at + burst_batches else low
            for index in range(batches)
        )
    if kind == "phase-shift":
        return tuple(
            high if index >= change_at else low for index in range(batches)
        )
    raise DatasetError(
        f"unknown drift kind {kind!r}; expected one of {DRIFT_KINDS}"
    )


class MicroDataset(Dataset):
    """Synthetic 32-bit value stream with tunable statistics."""

    name = "micro"
    tuple_bytes = 4

    def __init__(
        self,
        dynamic_range: int = 500,
        symbol_duplication: float = 0.0,
        vocabulary_duplication: float = 0.0,
    ) -> None:
        if dynamic_range < 2:
            raise DatasetError(f"dynamic_range must be >= 2, got {dynamic_range}")
        if dynamic_range > 1 << 32:
            raise DatasetError("dynamic_range must fit 32 bits")
        for knob_name, knob in (
            ("symbol_duplication", symbol_duplication),
            ("vocabulary_duplication", vocabulary_duplication),
        ):
            if not 0.0 <= knob <= 1.0:
                raise DatasetError(f"{knob_name} must be in [0, 1], got {knob}")
        self.dynamic_range = dynamic_range
        self.symbol_duplication = symbol_duplication
        self.vocabulary_duplication = vocabulary_duplication

    def _generate_tuples(self, tuple_count: int, rng: np.random.Generator) -> bytes:
        if tuple_count == 0:
            return b""
        if self.vocabulary_duplication > 0.0:
            return self._generate_vocabulary_stream(tuple_count, rng)
        return self._generate_symbol_stream(tuple_count, rng)

    def _generate_symbol_stream(
        self, tuple_count: int, rng: np.random.Generator
    ) -> bytes:
        fresh = rng.integers(
            0, self.dynamic_range, size=tuple_count, dtype=np.uint32
        )
        if self.symbol_duplication <= 0.0:
            return fresh.tobytes()
        # Re-emit from a bounded recency pool with the target probability.
        # Memoryviews hand out plain ints and take them back in place, so
        # the walk does no numpy-scalar work and builds no per-symbol list.
        reuse = rng.random(tuple_count) < self.symbol_duplication
        pool_picks = rng.integers(0, _POOL_SIZE, size=tuple_count)
        pool = fresh[rng.integers(0, tuple_count, size=_POOL_SIZE)].tolist()
        values = fresh.copy()
        symbols = memoryview(values)
        picks = memoryview(pool_picks)
        for i, again in enumerate(memoryview(reuse)):
            if again and i > 0:
                symbols[i] = pool[picks[i]]
            else:
                pool[picks[i]] = symbols[i]
        return values.tobytes()

    def _generate_vocabulary_stream(
        self, tuple_count: int, rng: np.random.Generator
    ) -> bytes:
        """Generate in aligned 64-bit vocabulary units (symbol pairs).

        Repeats come in *bursts*: when a vocabulary repeats, a short run
        of consecutive earlier vocabularies is replayed, with the mean
        run length growing with the duplication level. This mirrors real
        duplicated payloads (repeated records, not isolated words) and
        gives an LZ-family codec progressively longer matches as
        duplication rises.
        """
        duplication = self.vocabulary_duplication
        pair_count = (tuple_count + 1) // 2
        fresh = rng.integers(
            0, self.dynamic_range, size=(pair_count, 2), dtype=np.uint32
        )
        # Mean burst length ~2 at low duplication, up to ~9 towards 1.0;
        # the trigger probability is scaled down so the duplicated
        # *fraction* of pairs still matches the requested level.
        geometric_p = max(1.0 - duplication, 0.04)
        mean_run = 1.0 + 1.0 / geometric_p
        trigger = duplication / (mean_run * (1.0 - duplication) + duplication)
        reuse = rng.random(pair_count) < trigger
        run_lengths = 1 + rng.geometric(geometric_p, size=pair_count)
        pairs = np.empty((pair_count, 2), dtype=np.uint32)
        i = 0
        while i < pair_count:
            if reuse[i] and i > 1:
                run = int(min(run_lengths[i], i, pair_count - i))
                start = int(rng.integers(0, i - run + 1))
                pairs[i:i + run] = pairs[start:start + run]
                i += run
            else:
                pairs[i] = fresh[i]
                i += 1
        return pairs.reshape(-1)[:tuple_count].tobytes()
