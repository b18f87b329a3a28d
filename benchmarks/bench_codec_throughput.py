"""Real codec throughput (not a paper figure — library performance).

Measures actual wall-clock MB/s of each codec on a Rovio-profile batch.
This is the one bench where the numbers are *real time*, not simulated
time.
"""

import pytest

from repro.compression import Lz4, Tcomp32, Tdic32
from repro.datasets import get_dataset

BATCH_BYTES = 262144


@pytest.fixture(scope="module")
def batch():
    return get_dataset("rovio").generate(BATCH_BYTES, seed=1)


def _compress(codec, data):
    return codec.compress(data).payload


@pytest.mark.parametrize(
    "label,factory",
    [
        ("tcomp32", Tcomp32),
        ("tdic32", Tdic32),
        ("lz4", Lz4),
    ],
)
def test_compress_throughput(benchmark, batch, label, factory):
    benchmark.extra_info["batch_bytes"] = BATCH_BYTES
    payload = benchmark(lambda: _compress(factory(), batch))
    mb_per_s = BATCH_BYTES / 1e6 / benchmark.stats.stats.mean
    benchmark.extra_info["MB_per_s"] = round(mb_per_s, 1)
    assert payload  # produced output


@pytest.mark.parametrize(
    "label,factory",
    [
        ("tcomp32", Tcomp32),
        ("tdic32", Tdic32),
        ("lz4", Lz4),
    ],
)
def test_decompress_throughput(benchmark, batch, label, factory):
    payload = factory().compress(batch).payload

    def round_trip():
        return factory().decompress(payload)

    restored = benchmark(round_trip)
    assert restored == batch
