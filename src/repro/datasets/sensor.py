"""Sensor-profile dataset: XML-packed full-text sensor readings.

The paper's Sensor trace (Chicago beach weather stations) is full-text
streaming data from automated sensors: ASCII-only XML whose markup
repeats from record to record (partial vocabulary duplication) while the
embedded measurements drift slowly (low symbol entropy — digits and tag
characters only). Following the paper, every 16 ASCII characters form one
128-bit tuple.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.errors import DatasetError

__all__ = ["SensorDataset"]

# One 16-character record: '<sNNNN v=VVVVV/>' — station tag repeats
# (vocabulary duplication), value digits drift (low entropy).
_RECORD_TEMPLATE = "<s%04d v=%05d/>"
_RECORD_BYTES = 16


class SensorDataset(Dataset):
    """Synthetic stand-in for the beach-weather-station XML trace.

    Parameters
    ----------
    station_count:
        Number of stations cycling through the stream; fewer stations
        mean more repeated markup.
    value_walk_step:
        Maximum per-record drift of a station's measurement.
    """

    name = "sensor"
    tuple_bytes = _RECORD_BYTES

    def __init__(self, station_count: int = 16, value_walk_step: int = 25) -> None:
        if station_count < 1:
            raise DatasetError("station_count must be positive")
        if not 1 <= station_count <= 9999:
            raise DatasetError("station_count must fit the 4-digit tag")
        if value_walk_step < 1:
            raise DatasetError("value_walk_step must be positive")
        self.station_count = station_count
        self.value_walk_step = value_walk_step

    def _generate_tuples(self, tuple_count: int, rng: np.random.Generator) -> bytes:
        if tuple_count == 0:
            return b""
        # Draw whole arrays, then walk plain ints: clipping numpy
        # scalars per record would cost more than the rest of the
        # generator. Memoryviews hand the ints out one at a time.
        values = rng.integers(10_000, 60_000, size=self.station_count).tolist()
        steps = rng.integers(
            -self.value_walk_step, self.value_walk_step + 1, size=tuple_count
        )
        stations = rng.integers(0, self.station_count, size=tuple_count)
        records = []
        for station, step in zip(memoryview(stations), memoryview(steps)):
            value = values[station] + step
            if value < 0:
                value = 0
            elif value > 99_999:
                value = 99_999
            values[station] = value
            records.append(_RECORD_TEMPLATE % (station, value))
        text = "".join(records)
        data = text.encode("ascii")
        if len(data) != tuple_count * _RECORD_BYTES:
            raise DatasetError("sensor record template produced a wrong length")
        return data
