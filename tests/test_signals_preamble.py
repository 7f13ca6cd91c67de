"""Tests for the ranging preamble and correlation primitives."""

import numpy as np
import pytest

import scalar_receiver
from repro.constants import AUTOCORR_THRESHOLD
from repro.signals.batchcorr import (
    segment_autocorrelation_fast,
    segment_autocorrelation_scores_multi,
)
from repro.signals.correlation import cross_correlate, normalized_cross_correlation
from repro.signals.preamble import Preamble, PreambleConfig, make_preamble


@pytest.fixture(scope="module")
def preamble() -> Preamble:
    return make_preamble()


class TestPreambleStructure:
    def test_paper_dimensions(self, preamble):
        cfg = preamble.config
        assert cfg.num_symbols == 4
        assert cfg.symbol_stride == 1920 + 540
        assert len(preamble) == 4 * (1920 + 540)
        # ~223 ms at 44.1 kHz.
        assert cfg.duration_s == pytest.approx(0.223, abs=0.001)

    def test_pn_sign_structure(self, preamble):
        stride = preamble.config.symbol_stride
        seg0 = preamble.waveform[:stride]
        seg1 = preamble.waveform[stride : 2 * stride]
        seg2 = preamble.waveform[2 * stride : 3 * stride]
        seg3 = preamble.waveform[3 * stride : 4 * stride]
        assert np.allclose(seg0, seg1)
        assert np.allclose(seg0, -seg2)
        assert np.allclose(seg0, seg3)

    def test_symbol_starts(self, preamble):
        starts = preamble.symbol_starts(offset=100)
        assert starts[0] == 100 + 540
        assert np.all(np.diff(starts) == preamble.config.symbol_stride)

    def test_invalid_pn_signs(self):
        with pytest.raises(ValueError):
            PreambleConfig(pn_signs=(1, 2, -1, 1))
        with pytest.raises(ValueError):
            PreambleConfig(pn_signs=(1,))

    def test_base_symbol_no_cp(self, preamble):
        assert len(preamble.base_symbol) == preamble.config.ofdm.n_fft


class TestCrossCorrelation:
    def test_peak_at_embedded_offset(self, preamble):
        rng = np.random.default_rng(0)
        offset = 5_000
        stream = 0.01 * rng.standard_normal(offset + len(preamble) + 1_000)
        stream[offset : offset + len(preamble)] += preamble.waveform
        ncc = normalized_cross_correlation(stream, preamble.waveform)
        assert abs(int(np.argmax(ncc)) - offset) <= 1

    def test_ncc_bounded(self, preamble):
        rng = np.random.default_rng(1)
        stream = rng.standard_normal(30_000)
        ncc = normalized_cross_correlation(stream, preamble.waveform)
        assert np.all(ncc <= 1.0 + 1e-9)
        assert np.all(ncc >= -1.0 - 1e-9)

    def test_perfect_match_scores_one(self, preamble):
        ncc = normalized_cross_correlation(preamble.waveform, preamble.waveform)
        assert ncc[0] == pytest.approx(1.0, abs=1e-6)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            cross_correlate(np.zeros(0), np.ones(4))
        with pytest.raises(ValueError):
            normalized_cross_correlation(np.ones(10), np.zeros(4))


@pytest.fixture(
    params=[scalar_receiver.segment_autocorrelation, segment_autocorrelation_fast],
    ids=["scalar", "batch"],
)
def segment_autocorrelation(request):
    """The scalar oracle's gate statistic and the batched kernel's."""
    return request.param


class TestSegmentAutocorrelation:
    def test_high_for_genuine_preamble(self, preamble, segment_autocorrelation):
        cfg = preamble.config
        score = segment_autocorrelation(
            preamble.waveform, cfg.pn_signs, cfg.symbol_stride, cfg.ofdm.n_fft
        )
        assert score > 0.99

    def test_low_for_noise(self, preamble, segment_autocorrelation):
        rng = np.random.default_rng(2)
        cfg = preamble.config
        noise = rng.standard_normal(len(preamble))
        score = segment_autocorrelation(
            noise, cfg.pn_signs, cfg.symbol_stride, cfg.ofdm.n_fft
        )
        assert abs(score) < AUTOCORR_THRESHOLD

    def test_low_for_spiky_noise(self, preamble, segment_autocorrelation):
        # A single huge spike must not pass the PN-structure gate.
        cfg = preamble.config
        stream = np.zeros(len(preamble))
        stream[100] = 100.0
        score = segment_autocorrelation(
            stream, cfg.pn_signs, cfg.symbol_stride, cfg.ofdm.n_fft
        )
        assert score < AUTOCORR_THRESHOLD

    def test_survives_common_multipath(self, preamble, segment_autocorrelation):
        # All four symbols through the same FIR stay mutually coherent.
        from scipy.signal import lfilter

        cfg = preamble.config
        fir = np.zeros(300)
        fir[0], fir[120], fir[280] = 1.0, -0.7, 0.4
        convolved = lfilter(fir, [1.0], preamble.waveform)
        score = segment_autocorrelation(
            convolved, cfg.pn_signs, cfg.symbol_stride, cfg.ofdm.n_fft
        )
        assert score > 0.8

    def test_window_too_short_rejected(self, preamble, segment_autocorrelation):
        cfg = preamble.config
        with pytest.raises(ValueError):
            segment_autocorrelation(
                np.zeros(100), cfg.pn_signs, cfg.symbol_stride, cfg.ofdm.n_fft
            )

    def test_candidate_scores_peak_at_the_preamble(self, preamble):
        cfg = preamble.config
        rng = np.random.default_rng(3)
        offset = 2_000
        stream = 0.01 * rng.standard_normal(offset + len(preamble) + 500)
        stream[offset : offset + len(preamble)] += preamble.waveform
        gate = (cfg.pn_signs, cfg.symbol_stride, cfg.ofdm.n_fft)
        (scores,) = segment_autocorrelation_scores_multi([stream], [[offset - 700, offset]], *gate)
        assert scores[1] > 0.9
        assert scores[1] > scores[0]
        with pytest.raises(ValueError, match="out of range"):
            segment_autocorrelation_scores_multi([stream], [[stream.size]], *gate)
