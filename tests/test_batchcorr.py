"""Batched-vs-scalar bit-parity of the signal kernels (property-based).

The batch pipeline's contract is *bit-identical* outputs to the scalar
reference (``repro.signals.correlation`` and the oracle chain of
``tests/scalar_receiver.py``) on the same inputs — not approximate
equality.  These hypothesis tests drive random shapes/SNRs through both
paths and assert exact equality, so any platform where a vectorised op
rounds differently from its scalar twin fails loudly here rather than
silently breaking end-to-end parity.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.multipath import PathTap, image_method_tap_arrays, image_method_taps
from repro.channel.noise import synth_noise_rows, synth_noise_shape
from repro.channel.render import (
    CachedWaveform,
    apply_channel,
    apply_channel_batch,
    fir_length_for,
    render_taps,
    render_taps_positions,
)
from repro.constants import NOISE_FLOOR_TAPS
from repro.signals import batchcorr, xp
from repro.signals.correlation import cross_correlate, normalized_cross_correlation
from repro.signals.peaks import noise_floor
from scalar_receiver import is_peak, local_peak_indices, segment_autocorrelation


def _rng(seed):
    return np.random.default_rng(seed)


def _gate(stream, starts, signs, stride, symbol_len, force_gemm=False):
    """Gate scores of one stream: the multi-stream call on one stream."""
    (scores,) = batchcorr.segment_autocorrelation_scores_multi(
        [stream], [starts], signs, stride, symbol_len, force_gemm=force_gemm
    )
    return scores


class TestCrossCorrelateParity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_streams=st.integers(1, 5),
        template_len=st.integers(1, 64),
    )
    def test_normalized_matches_scalar(self, seed, n_streams, template_len):
        rng = _rng(seed)
        template = rng.standard_normal(template_len)
        streams = [
            rng.standard_normal(rng.integers(1, 400)) * 10.0 ** rng.uniform(-3, 2)
            for _ in range(n_streams)
        ]
        batched = batchcorr.normalized_cross_correlation_batch(streams, template)
        for stream, got in zip(streams, batched):
            want = normalized_cross_correlation(stream, template)
            assert np.array_equal(want, got)

    def test_template_cache_reused_across_lengths(self):
        rng = _rng(0)
        tmpl = batchcorr.CachedTemplate(rng.standard_normal(32))
        batchcorr.normalized_cross_correlation_batch([rng.standard_normal(100)], tmpl)
        batchcorr.normalized_cross_correlation_batch([rng.standard_normal(100)], tmpl)
        # Second call hit both spectrum caches.
        assert len(tmpl._rev_fft) == 1 and len(tmpl._window_fft) == 1


class TestPeakParity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    def test_local_peaks_match_scalar(self, seed, n):
        rng = _rng(seed)
        # Mix plateaus in: ties exercise the >= / > boundary logic.
        values = np.round(rng.standard_normal(n), rng.integers(0, 3))
        min_height = float(rng.uniform(-1.0, 1.0))
        want = local_peak_indices(values, min_height)
        got = batchcorr.local_peak_indices_fast(values, min_height)
        assert np.array_equal(want, got)

    def test_mask_matches_is_peak_per_index(self):
        values = np.array([1.0, 1.0, 2.0, 2.0, 1.0, 3.0])
        mask = batchcorr.peak_mask(values)
        for i in range(values.size):
            assert mask[i] == is_peak(i, values)

    def test_single_sample_is_not_a_peak(self):
        assert batchcorr.local_peak_indices_fast(np.array([5.0]), 0.0).size == 0


class TestSegmentAutocorrelationParity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        symbol_len=st.integers(1, 48),
        cp=st.integers(0, 16),
        num_symbols=st.integers(2, 5),
    )
    def test_fast_matches_scalar(self, seed, symbol_len, cp, num_symbols):
        rng = _rng(seed)
        stride = symbol_len + cp
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=num_symbols))
        window = rng.standard_normal(stride * num_symbols) * 10.0 ** rng.uniform(-4, 2)
        want = segment_autocorrelation(window, signs, stride, symbol_len)
        got = batchcorr.segment_autocorrelation_fast(window, signs, stride, symbol_len)
        assert want == got

    def test_scores_match_scalar_over_candidate_batch(self):
        rng = _rng(7)
        stride, symbol_len = 60, 48
        signs = (1, 1, -1, 1)
        stream = rng.standard_normal(stride * 4 + 500)
        starts = list(range(0, 500, 37))
        scores = _gate(
            stream, starts, signs, stride, symbol_len
        )
        for start, score in zip(starts, scores):
            want = segment_autocorrelation(
                stream[start : start + stride * 4], signs, stride, symbol_len
            )
            assert want == score

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), force_gemm=st.booleans())
    def test_multi_stream_gate_matches_per_stream_calls(self, seed, force_gemm):
        """Stacking many streams' windows into one GEMM changes no bits."""
        rng = _rng(seed)
        stride, symbol_len = 60, 48
        signs = (1, 1, -1, 1)
        needed = stride * 4
        streams, starts = [], []
        for _ in range(int(rng.integers(1, 6))):
            stream = rng.standard_normal(needed + int(rng.integers(0, 400)))
            k = int(rng.integers(0, 6))
            streams.append(stream)
            starts.append(
                [int(s) for s in rng.integers(0, stream.size - needed + 1, size=k)]
            )
        multi = batchcorr.segment_autocorrelation_scores_multi(
            streams, starts, signs, stride, symbol_len, force_gemm=force_gemm
        )
        assert len(multi) == len(streams)
        for stream, st_row, got in zip(streams, starts, multi):
            want = _gate(
                stream, st_row, signs, stride, symbol_len, force_gemm=force_gemm
            )
            assert np.array_equal(want, got)
            if not force_gemm:
                for start, score in zip(st_row, got):
                    assert score == segment_autocorrelation(
                        stream[start : start + needed], signs, stride, symbol_len
                    )

    def test_degenerate_segment_scores_zero(self):
        stride, symbol_len = 8, 8
        window = np.zeros(stride * 4)
        window[stride:] = 1.0  # first segment all zero
        signs = (1, 1, 1, 1)
        assert segment_autocorrelation(window, signs, stride, symbol_len) == 0.0
        assert batchcorr.segment_autocorrelation_fast(window, signs, stride, symbol_len) == 0.0


def _fast_gate(stream, starts, signs, stride, symbol_len):
    return _gate(stream, starts, signs, stride, symbol_len, force_gemm=True)


class TestFastGateProperties:
    """The strided-Gram gate of the fast backend (``force_gemm=True``)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        symbol_len=st.integers(1, 48),
        cp=st.integers(0, 16),
        num_symbols=st.integers(2, 5),
        n_candidates=st.integers(1, 8),
        periodic=st.booleans(),
    )
    def test_close_to_scalar_and_bounded(
        self, seed, symbol_len, cp, num_symbols, n_candidates, periodic
    ):
        rng = _rng(seed)
        stride = symbol_len + cp
        needed = stride * num_symbols
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=num_symbols))
        scale = 10.0 ** rng.uniform(-4, 2)
        if periodic:
            # A clean PN-signed repetition scores at the +1 edge.
            body = rng.standard_normal(stride)
            stream = np.concatenate([s * body for s in signs] + [body])
            stream += 1e-9 * rng.standard_normal(stream.size)
        else:
            stream = rng.standard_normal(needed + int(rng.integers(0, 200)))
        stream *= scale
        starts = [int(s) for s in rng.integers(0, stream.size - needed + 1, n_candidates)]
        got = _fast_gate(stream, starts, signs, stride, symbol_len)
        assert got.dtype == np.float64
        assert np.all((got >= -1.0) & (got <= 1.0))
        for start, score in zip(starts, got):
            want = segment_autocorrelation(
                stream[start : start + needed], signs, stride, symbol_len
            )
            assert abs(score - want) <= 1e-12

    @pytest.mark.parametrize("segment", [0, 2, 3])
    def test_zero_segment_scores_exactly_zero(self, segment):
        stride, symbol_len = 60, 48
        signs = (1, 1, -1, 1)
        stream = _rng(segment).standard_normal(stride * 4 + 30)
        start = 17
        seg = start + segment * stride
        stream[seg : seg + symbol_len] = 0.0
        (score,) = _fast_gate(stream, [start], signs, stride, symbol_len)
        assert score == 0.0

    def test_float32_streams_give_float32_scores(self):
        stride, symbol_len = 60, 48
        stream = _rng(3).standard_normal(stride * 4 + 100).astype(np.float32)
        scores = _fast_gate(stream, [0, 50, 100], (1, 1, -1, 1), stride, symbol_len)
        assert scores.dtype == np.float32
        want = _gate(
            stream.astype(np.float64), [0, 50, 100], (1, 1, -1, 1), stride, symbol_len
        )
        assert np.allclose(scores, want, atol=1e-5)

    @pytest.mark.parametrize("path", ["fast", "probe_passes", "probe_fails"])
    @pytest.mark.parametrize("bad", [-5, -1, "tail"])
    def test_out_of_range_start_raises_on_every_path(self, monkeypatch, path, bad):
        stride, symbol_len = 60, 48
        signs = (1, 1, -1, 1)
        stream = _rng(0).standard_normal(stride * 4 + 30)
        start = stream.size - stride * 4 + 1 if bad == "tail" else bad
        if path != "fast":
            monkeypatch.setitem(
                batchcorr._GEMM_PROBE, (len(signs), symbol_len), path == "probe_passes"
            )
        with pytest.raises(ValueError, match="out of range"):
            _gate(
                stream, [0, start], signs, stride, symbol_len, force_gemm=path == "fast"
            )
        with pytest.raises(ValueError, match="out of range"):
            batchcorr.segment_autocorrelation_scores_multi(
                [stream[:10], stream],
                [[], [start]],
                signs,
                stride,
                symbol_len,
                force_gemm=path == "fast",
            )

    def test_last_valid_start_is_accepted(self):
        stride, symbol_len = 60, 48
        signs = (1, 1, -1, 1)
        stream = _rng(1).standard_normal(stride * 4 + 30)
        last = stream.size - stride * 4
        fast = _fast_gate(stream, [0, last], signs, stride, symbol_len)
        want = segment_autocorrelation(stream[last:], signs, stride, symbol_len)
        assert abs(fast[1] - want) <= 1e-12


class TestRenderParity:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_taps=st.integers(1, 40))
    def test_scatter_matches_loop(self, seed, n_taps):
        rng = _rng(seed)
        positions = rng.uniform(0.0, 120.0, n_taps)
        amps = rng.standard_normal(n_taps)
        length = int(rng.integers(1, 140))
        got = render_taps_positions(positions, amps, length)
        want = np.zeros(length)
        for pos, amp in zip(positions, amps):
            base = int(np.floor(pos))
            frac = pos - base
            if base + 1 >= length:
                continue
            want[base] += amp * (1.0 - frac)
            want[base + 1] += amp * frac
        assert np.array_equal(want, got)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_apply_channel_batch_matches_scalar(self, seed):
        rng = _rng(seed)
        wave = rng.standard_normal(int(rng.integers(8, 200)))
        cached = CachedWaveform(wave)
        taps_rows = []
        for _ in range(int(rng.integers(1, 4))):
            n_taps = int(rng.integers(1, 12))
            taps_rows.append(
                [
                    PathTap(float(d), float(a))
                    for d, a in zip(
                        rng.uniform(0.0, 0.01, n_taps), rng.standard_normal(n_taps)
                    )
                ]
            )
        fs = 44_100.0
        outputs = [int(rng.integers(4, 600)) for _ in taps_rows]
        want = [
            apply_channel(wave, taps, fs, output_length=n)
            for taps, n in zip(taps_rows, outputs)
        ]
        fir_lengths = []
        firs = []
        for taps, n in zip(taps_rows, outputs):
            # The one sizing contract apply_channel uses internally.
            fir_len = min(n, fir_length_for(taps, fs))
            fir_lengths.append(fir_len)
            firs.append(render_taps(taps, fs, length=fir_len))
        got = apply_channel_batch(cached, firs, fir_lengths, outputs)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)

    def test_render_taps_uses_scatter_core(self):
        taps = [PathTap(0.001, 1.0), PathTap(0.0013, -0.5)]
        fir = render_taps(taps, 44_100.0)
        assert fir.size >= 2 and np.count_nonzero(fir) >= 2


class TestFirRightSizingEquivalence:
    """Satellite: the epoch-2 FIR fix is a pure FFT-length change.

    The pre-epoch-2 FIR was the right-sized FIR plus ``wave.size``
    trailing zeros: the rendered taps agree bit for bit on the shared
    prefix, and the convolution outputs agree to FFT rounding.  The only
    thing the bugfix changed is the transform length — exactly the
    deviation the parity-epoch-2 baseline reset absorbs.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_taps=st.integers(1, 25))
    def test_old_long_fir_is_right_sized_fir_plus_zeros(self, seed, n_taps):
        rng = _rng(seed)
        fs = 44_100.0
        wave_size = int(rng.integers(8, 300))
        taps = [
            PathTap(float(d), float(a))
            for d, a in zip(rng.uniform(0.0, 0.02, n_taps), rng.standard_normal(n_taps))
        ]
        fir_len = fir_length_for(taps, fs)
        old_len = wave_size + int(np.ceil(max(t.delay_s for t in taps) * fs)) + 2
        long_fir = render_taps(taps, fs, length=old_len)
        short_fir = render_taps(taps, fs, length=fir_len)
        assert np.array_equal(long_fir[:fir_len], short_fir)
        assert not long_fir[fir_len:].any()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_taps=st.integers(1, 25))
    def test_output_matches_old_long_fir_result_truncated(self, seed, n_taps):
        from scipy.signal import fftconvolve

        rng = _rng(seed)
        fs = 44_100.0
        wave = rng.standard_normal(int(rng.integers(8, 300)))
        taps = [
            PathTap(float(d), float(a))
            for d, a in zip(rng.uniform(0.0, 0.02, n_taps), rng.standard_normal(n_taps))
        ]
        old_len = wave.size + int(np.ceil(max(t.delay_s for t in taps) * fs)) + 2
        # Random output length around the natural sizes, plus the
        # default (None) axis — the pre-fix default had the same value.
        n = (
            None
            if rng.integers(0, 2) == 0
            else int(rng.integers(4, old_len + 40))
        )
        want_n = old_len if n is None else n
        old_fir = render_taps(taps, fs, length=min(want_n, old_len))
        want = fftconvolve(wave, old_fir, mode="full")[:want_n]
        if want.size < want_n:
            want = np.pad(want, (0, want_n - want.size))
        got = apply_channel(wave, taps, fs, output_length=n)
        assert got.shape == want.shape
        scale = float(np.abs(want).max()) if want.size else 0.0
        assert np.allclose(got, want, rtol=0.0, atol=1e-9 * (scale + 1.0))


class TestImageMethodArrays:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_arrays_match_tap_list(self, seed):
        rng = _rng(seed)
        depth = float(rng.uniform(2.0, 20.0))
        tx = np.array([0.0, 0.0, rng.uniform(0.1, depth - 0.1)])
        rx = np.array(
            [rng.uniform(1.0, 50.0), rng.uniform(-5.0, 5.0), rng.uniform(0.1, depth - 0.1)]
        )
        speed = float(rng.uniform(1400.0, 1560.0))
        order = int(rng.integers(1, 5))
        delays, amps, surf, bot = image_method_tap_arrays(
            tx, rx, depth, speed, max_order=order
        )
        taps3 = image_method_taps(tx, rx, depth, speed, max_order=order)
        assert len(taps3) == delays.size
        for i, tap in enumerate(taps3):
            assert tap.delay_s == delays[i]
            assert tap.amplitude == amps[i]
            assert tap.surface_bounces == surf[i]
            assert tap.bottom_bounces == bot[i]


class TestNoiseFloorRegression:
    """Satellite: noise_floor is the *amplitude-scale* statistic.

    The docstring/paper said "average power" while the code averaged
    magnitudes; the magnitude semantics are what DIRECT_PATH_MARGIN is
    calibrated against, so they are now pinned.
    """

    def test_noise_floor_is_mean_magnitude_of_tail(self):
        rng = _rng(0)
        values = rng.standard_normal(500)
        want = float(np.mean(np.abs(values[-NOISE_FLOOR_TAPS:])))
        assert noise_floor(values) == want

    def test_power_floor_is_quadratically_smaller_on_normalised_channel(self):
        # On a [0, 1] channel the power statistic would practically
        # disappear under the 0.2 margin — the calibration argument for
        # keeping the magnitude scale.
        rng = _rng(2)
        channel = np.abs(rng.standard_normal(1_920)) * 0.05
        channel[100] = 1.0
        mag = noise_floor(channel)
        pow_ = float(np.mean(channel[-NOISE_FLOOR_TAPS:] ** 2))
        assert pow_ < mag < 1.0
        assert pow_ == pytest.approx(mag**2, rel=1.5)

    def test_short_input_uses_whole_array(self):
        values = np.array([1.0, -3.0])
        assert noise_floor(values) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            noise_floor(np.array([]))


class TestCrossCorrelateTail:
    """Satellite: the full-mode slice is always complete (no tail pad)."""

    def test_output_length_equals_stream_length(self):
        stream = np.ones(10)
        template = np.ones(4)
        out = cross_correlate(stream, template)
        assert out.size == stream.size

    def test_tail_tapers_instead_of_zero_padding(self):
        # With an all-ones stream/template, entry i near the end sums
        # only the overlapping template samples — nonzero, decreasing
        # (up to FFT round-off; the old docstring claimed zeros there).
        out = cross_correlate(np.ones(10), np.ones(4))
        assert np.allclose(out[-4:], [4.0, 3.0, 2.0, 1.0])
        assert np.all(np.abs(out[-4:]) > 0.5)


#: Budgets that split a batch into single rows and keep it whole.
_ONE_ROW, _WHOLE_BATCH = 1, 1 << 62


def _under_budgets(call):
    """``call()`` once under a one-row budget, once under a whole-batch one."""
    results = []
    for budget in (_ONE_ROW, _WHOLE_BATCH):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xp, "BLOCK_BYTES", budget)
            results.append(call())
    return results


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_DTYPES = st.sampled_from([np.float64, np.float32])


class TestRowBlocking:
    """Row-blocked stacked FFT kernels match their one-shot selves bit for bit.

    Each kernel runs once with the working-set budget patched to one
    row (every row its own block) and once to the whole batch (the
    unblocked computation); outputs, and for the noise synthesis the
    generator state after the call, must be identical.
    """

    def test_row_blocks_cover_rows_in_order(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xp, "BLOCK_BYTES", 100)
            assert list(xp.row_blocks(7, 30)) == [(0, 3), (3, 6), (6, 7)]
            assert list(xp.row_blocks(2, 1000)) == [(0, 1), (1, 2)]
            assert list(xp.row_blocks(0, 30)) == []

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        template_len=st.integers(1, 48),
        dtype=_DTYPES,
    )
    def test_ncc_kernels(self, seed, rows, template_len, dtype):
        rng = _rng(seed)
        template = rng.standard_normal(template_len)
        streams = [
            rng.standard_normal(int(rng.integers(1, 500))).astype(dtype) for _ in range(rows)
        ]
        for kernel, tmpl_dtype in (
            (batchcorr.normalized_cross_correlation_batch, np.float64),
            (batchcorr.normalized_cross_correlation_fused, dtype),
        ):
            blocked, whole = _under_budgets(
                lambda: kernel(streams, batchcorr.CachedTemplate(template, dtype=tmpl_dtype))
            )
            assert len(blocked) == len(whole) == rows
            for b, w in zip(blocked, whole):
                assert _same_bits(b, w)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        shared_length=st.booleans(),
        dtype=_DTYPES,
    )
    def test_apply_channel_batch(self, seed, rows, shared_length, dtype):
        rng = _rng(seed)
        wave = rng.standard_normal(int(rng.integers(1, 300)))
        fir_rows, fir_lengths, output_lengths = [], [], []
        for _ in range(rows):
            n_fir = int(rng.integers(1, 200))
            if rng.random() < 0.5:
                n_taps = int(rng.integers(1, 8))
                fir_rows.append((rng.uniform(0.0, n_fir, n_taps), rng.standard_normal(n_taps)))
            else:
                fir_rows.append(rng.standard_normal(n_fir + int(rng.integers(0, 5))))
            fir_lengths.append(n_fir)
            # Outputs both shorter and longer than the full convolution.
            output_lengths.append(int(rng.integers(1, wave.size + n_fir + 50)))
        blocked, whole = _under_budgets(
            lambda: apply_channel_batch(
                CachedWaveform(wave, dtype=dtype),
                fir_rows,
                fir_lengths,
                output_lengths,
                shared_length=shared_length,
            )
        )
        for b, w, n in zip(blocked, whole, output_lengths):
            assert _same_bits(b, w) and b.size == n

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        predrawn=st.booleans(),
        precision=st.sampled_from(["float64", "float32"]),
    )
    def test_synth_noise_rows(self, seed, rows, predrawn, precision):
        rng = _rng(seed)
        lengths = [int(n) for n in rng.integers(1, 700, rows)]
        levels = [(0.005, 0.0), (0.002, 0.001), (0.0, 0.003)]
        picks = rng.integers(0, len(levels), rows)
        ambient = [levels[i][0] for i in picks]
        hw = [levels[i][1] for i in picks]
        real = xp.get_context(precision).real_dtype
        z = (
            _rng(seed ^ 0x5EED).standard_normal(synth_noise_shape(lengths), dtype=real)
            if predrawn
            else None
        )
        states = []

        def call():
            gen = _rng(seed + 1)
            out = synth_noise_rows(lengths, ambient, hw, gen, 44_100.0, z=z, precision=precision)
            states.append(gen.bit_generator.state)
            return out

        blocked, whole = _under_budgets(call)
        assert _same_bits(blocked, whole)
        assert blocked.shape == (rows, max(lengths))
        assert states[0] == states[1]
