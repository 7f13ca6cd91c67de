"""Tests for the chirp and FMCW baseline waveforms."""

import numpy as np
import pytest

from repro.signals.chirp import linear_chirp
from repro.signals.fmcw import (
    FmcwConfig,
    beat_bin_to_delay,
    dechirp,
    estimate_delay,
    fmcw_waveform,
)


class TestLinearChirp:
    def test_length_and_amplitude(self):
        wave = linear_chirp(0.1, 1_000, 5_000, 44_100)
        assert wave.size == 4_410
        assert np.max(np.abs(wave)) == pytest.approx(1.0)

    def test_band_occupancy(self):
        wave = linear_chirp(0.2, 1_000, 5_000, 44_100, window=None)
        spectrum = np.abs(np.fft.rfft(wave))
        freqs = np.fft.rfftfreq(wave.size, d=1 / 44_100)
        total = spectrum.sum()
        in_band = spectrum[(freqs >= 900) & (freqs <= 5_100)].sum()
        assert in_band / total > 0.95

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            linear_chirp(0.0, 1_000, 5_000, 44_100)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            linear_chirp(0.1, 1_000, 30_000, 44_100)

    def test_custom_amplitude(self):
        wave = linear_chirp(0.05, 1_000, 5_000, 44_100, amplitude=0.3)
        assert np.max(np.abs(wave)) == pytest.approx(0.3)


class TestLinearChirpMatchesScipy:
    """``linear_chirp`` is numpy-only but bit-identical to scipy's
    ``chirp`` times ``get_window`` (scipy is imported here only)."""

    @staticmethod
    def reference(duration_s, f0, f1, fs, window):
        from scipy import signal as sp_signal

        n = int(round(duration_s * fs))
        t = np.arange(n) / fs
        wave = sp_signal.chirp(t, f0=f0, t1=duration_s, f1=f1, method="linear")
        if window is not None:
            wave = wave * sp_signal.get_window(window, n)
        return wave * (1.0 / np.max(np.abs(wave)))

    @pytest.mark.parametrize("window", ["hann", None])
    @pytest.mark.parametrize("num_samples", [1, 2, 3, 441, 4_410, 8_820, 9_261])
    def test_bit_identical(self, num_samples, window):
        duration_s = num_samples / 44_100
        got = linear_chirp(duration_s, 1_000, 5_000, 44_100, window=window)
        expected = self.reference(duration_s, 1_000, 5_000, 44_100, window)
        assert got.size == num_samples
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("window", ["hann", None])
    def test_bit_identical_downsweep_float_edges(self, window):
        got = linear_chirp(0.0371, 5_000.0, 1_000.0, 48_000.0, window=window)
        expected = self.reference(0.0371, 5_000.0, 1_000.0, 48_000.0, window)
        assert np.array_equal(got, expected)


class TestLinearChirpErrors:
    @pytest.mark.parametrize("window", ["hann", None])
    def test_sub_sample_duration_names_duration(self, window):
        with pytest.raises(ValueError, match="duration_s=1e-06 is shorter than one sample"):
            linear_chirp(1e-6, 1_000, 5_000, 44_100, window=window)

    @pytest.mark.parametrize("sample_rate", [0, -44_100.0])
    def test_non_positive_sample_rate(self, sample_rate):
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            linear_chirp(0.1, 1_000, 5_000, sample_rate)

    def test_unsupported_window_names_the_supported_ones(self):
        with pytest.raises(ValueError, match=r"window must be one of \('hann',\) or None"):
            linear_chirp(0.1, 1_000, 5_000, 44_100, window="hamming")


class TestFmcw:
    def test_config_properties(self):
        cfg = FmcwConfig(duration_s=0.2)
        assert cfg.bandwidth_hz == pytest.approx(4_000.0)
        assert cfg.slope_hz_per_s == pytest.approx(20_000.0)
        assert cfg.num_samples == 8_820

    def test_zero_delay_beat_at_dc(self):
        cfg = FmcwConfig(duration_s=0.2)
        ref = fmcw_waveform(cfg)
        spectrum = dechirp(ref, cfg)
        # Self-mix: beat concentrated at/near DC.
        assert np.argmax(spectrum) <= 2

    def test_known_delay_recovered(self):
        cfg = FmcwConfig(duration_s=0.5)
        ref = fmcw_waveform(cfg)
        delay_samples = 441  # 10 ms
        delayed = np.concatenate([np.zeros(delay_samples), ref])
        est = estimate_delay(delayed, cfg)
        assert est == pytest.approx(0.01, abs=0.002)

    def test_bin_to_delay_conversion(self):
        cfg = FmcwConfig(duration_s=0.5)
        # One FFT bin = fs/N Hz = 2 Hz; slope 8 kHz/s -> 0.25 ms per bin.
        assert beat_bin_to_delay(1, cfg) == pytest.approx(
            (44_100 / cfg.num_samples) / cfg.slope_hz_per_s
        )

    def test_short_window_rejected(self):
        cfg = FmcwConfig(duration_s=0.2)
        with pytest.raises(ValueError):
            dechirp(np.zeros(100), cfg)
