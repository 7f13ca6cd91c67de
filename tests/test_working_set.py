"""The stacked FFT kernels' working set is bounded by the block budget.

Every stacked kernel walks its batch in ``repro.signals.xp.row_blocks``
and frees a block's temporaries before the next, so on a fig12-sized
batch (about 120 rows of 26,460 samples, the largest detection batch of
the waveform tier) its traced peak must stay under the bytes it returns
plus a small multiple of ``BLOCK_BYTES``.  numpy reports its array
allocations to tracemalloc, so these peaks are exact for a given
numpy/scipy build.  Before blocking, the fused NCC alone held four
whole-batch arrays (about 26 budgets above its output on this batch).
"""

import tracemalloc

import numpy as np
import pytest

from repro.channel.noise import synth_noise_rows
from repro.channel.render import CachedWaveform, apply_channel_batch
from repro.signals import batchcorr, xp

_ROWS, _SAMPLES = 120, 26_460
#: Allowed excess over the output bytes, in budgets: a block holds its
#: stacked input, spectrum and transform output (plus the float64
#: cumulative sum in the fused NCC).
_SLACK_BUDGETS = 4


def _nbytes(out):
    return out.nbytes if isinstance(out, np.ndarray) else sum(a.nbytes for a in out)


def _traced(call):
    """``(result, traced peak bytes)`` of one call."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(12)
    streams = [rng.standard_normal(_SAMPLES - int(rng.integers(0, 60))) for _ in range(_ROWS)]
    return rng, streams


def _assert_bounded(call):
    """``call(count)`` on the whole batch stays within the working-set bound."""
    call(2)  # load the FFT bindings outside the traced window
    out, peak = _traced(call)
    limit = _nbytes(out) + _SLACK_BUDGETS * xp.BLOCK_BYTES
    assert peak <= limit, (
        f"traced peak {peak / 2**20:.1f} MiB exceeds output "
        f"{_nbytes(out) / 2**20:.1f} MiB + {_SLACK_BUDGETS} x budget"
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fused_ncc(batch, dtype):
    rng, streams = batch
    streams = [s.astype(dtype) for s in streams]
    tmpl = batchcorr.CachedTemplate(rng.standard_normal(2_000), dtype=dtype)

    def call(count=_ROWS):
        return batchcorr.normalized_cross_correlation_fused(streams[:count], tmpl, workers=1)

    _assert_bounded(call)


def test_parity_ncc(batch):
    rng, streams = batch
    tmpl = batchcorr.CachedTemplate(rng.standard_normal(2_000))

    def call(count=_ROWS):
        return batchcorr.normalized_cross_correlation_batch(streams[:count], tmpl)

    _assert_bounded(call)


@pytest.mark.parametrize("shared_length", [False, True])
def test_apply_channel_batch(batch, shared_length):
    rng, _ = batch
    wave = CachedWaveform(rng.standard_normal(_SAMPLES - 1_500))
    firs = [rng.standard_normal(int(rng.integers(500, 1_500))) for _ in range(_ROWS)]
    lengths = [f.size for f in firs]
    outputs = [wave.size + n for n in lengths]

    def call(count=_ROWS):
        return apply_channel_batch(
            wave,
            firs[:count],
            lengths[:count],
            outputs[:count],
            shared_length=shared_length,
            workers=1,
        )

    _assert_bounded(call)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_synth_noise_rows(precision):
    def call(count=_ROWS):
        return synth_noise_rows(
            [_SAMPLES] * count,
            [0.005] * count,
            [0.001] * count,
            np.random.default_rng(3),
            44_100.0,
            workers=1,
            precision=precision,
        )

    _assert_bounded(call)

