"""Tests for LS channel estimation and peak utilities.

Each case runs on the scalar oracle of ``tests/scalar_receiver.py`` and
on its batched production counterpart (one row per call).
"""

from types import SimpleNamespace

import numpy as np
import pytest

import scalar_receiver
from repro.channel.multipath import PathTap
from repro.channel.render import apply_channel
from repro.ranging.batch import channel_impulse_response_batch, ls_channel_estimate_batch
from repro.signals.batchcorr import local_peak_indices_fast, peak_mask
from repro.signals.peaks import noise_floor
from repro.signals.preamble import make_preamble


@pytest.fixture(scope="module")
def preamble():
    return make_preamble()


def _ls_batch(stream, preamble, start_index):
    return ls_channel_estimate_batch([stream], preamble, [start_index])[0]


def _cir_batch(h_freq, ofdm, normalize=True):
    return channel_impulse_response_batch(np.asarray(h_freq)[None], ofdm, normalize)[0]


def _is_peak_batch(index, values):
    return bool(peak_mask(values)[index])


_RECEIVERS = {
    "scalar": SimpleNamespace(
        ls_channel_estimate=scalar_receiver.ls_channel_estimate,
        channel_impulse_response=scalar_receiver.channel_impulse_response,
        is_peak=scalar_receiver.is_peak,
        local_peak_indices=scalar_receiver.local_peak_indices,
    ),
    "batch": SimpleNamespace(
        ls_channel_estimate=_ls_batch,
        channel_impulse_response=_cir_batch,
        is_peak=_is_peak_batch,
        local_peak_indices=local_peak_indices_fast,
    ),
}


@pytest.fixture(params=sorted(_RECEIVERS))
def rx(request):
    """One implementation of the channel-estimation and peak stages."""
    return _RECEIVERS[request.param]


class TestLsChannelEstimate:
    def test_identity_channel(self, preamble, rx):
        stream = np.concatenate([np.zeros(1_000), preamble.waveform, np.zeros(500)])
        h = rx.ls_channel_estimate(stream, preamble, 1_000)
        cir = rx.channel_impulse_response(h, preamble.config.ofdm)
        assert int(np.argmax(cir)) == 0

    def test_two_tap_channel_peaks(self, preamble, rx):
        fs = preamble.config.ofdm.sample_rate
        taps = [
            PathTap(delay_s=0.0, amplitude=1.0),
            PathTap(delay_s=200 / fs, amplitude=0.6, bottom_bounces=1),
        ]
        body = apply_channel(preamble.waveform, taps, fs)
        stream = np.concatenate([np.zeros(800), body])
        h = rx.ls_channel_estimate(stream, preamble, 800)
        cir = rx.channel_impulse_response(h, preamble.config.ofdm)
        peaks = rx.local_peak_indices(cir, min_height=0.3)
        assert any(abs(p - 0) <= 2 for p in peaks)
        assert any(abs(p - 200) <= 2 for p in peaks)

    def test_delayed_sync_shifts_cir(self, preamble, rx):
        stream = np.concatenate([np.zeros(1_000), preamble.waveform, np.zeros(500)])
        # Detect 30 samples early -> direct path shows at tap 30.
        h = rx.ls_channel_estimate(stream, preamble, 970)
        cir = rx.channel_impulse_response(h, preamble.config.ofdm)
        assert abs(int(np.argmax(cir)) - 30) <= 1

    def test_no_symbols_in_stream_rejected(self, preamble, rx):
        with pytest.raises(ValueError):
            rx.ls_channel_estimate(np.zeros(100), preamble, 50)

    def test_normalised_to_unit_peak(self, preamble, rx):
        stream = np.concatenate([np.zeros(100), 3.0 * preamble.waveform])
        h = rx.ls_channel_estimate(stream, preamble, 100)
        cir = rx.channel_impulse_response(h, preamble.config.ofdm)
        assert cir.max() == pytest.approx(1.0)

    def test_wrong_bin_count_rejected(self, preamble, rx):
        with pytest.raises(ValueError):
            rx.channel_impulse_response(np.ones(4, dtype=complex), preamble.config.ofdm)


class TestPeakUtilities:
    def test_interior_peak(self, rx):
        assert rx.is_peak(1, np.array([0.0, 1.0, 0.0]))
        assert not rx.is_peak(1, np.array([0.0, 1.0, 2.0]))

    def test_plateau_edges_both_count(self, rx):
        # Both samples of a two-sample plateau qualify; the estimator
        # takes the earliest, so this is harmless.
        values = np.array([0.0, 1.0, 1.0, 0.0])
        assert rx.is_peak(1, values)
        assert rx.is_peak(2, values)
        # A strictly interior flat run is not a peak.
        assert not rx.is_peak(1, np.array([1.0, 1.0, 1.0]))

    def test_boundary_peaks(self, rx):
        assert rx.is_peak(0, np.array([2.0, 1.0, 0.0]))
        assert rx.is_peak(2, np.array([0.0, 1.0, 2.0]))

    def test_out_of_range_rejected(self, rx):
        with pytest.raises(IndexError):
            rx.is_peak(5, np.array([1.0, 2.0]))

    def test_local_peak_indices_threshold(self, rx):
        values = np.array([0.0, 0.5, 0.0, 0.9, 0.0, 0.2, 0.0])
        assert list(rx.local_peak_indices(values, 0.4)) == [1, 3]

    def test_local_peaks_empty_input(self, rx):
        assert rx.local_peak_indices(np.array([])).size == 0

    def test_noise_floor_tail_mean(self):
        values = np.concatenate([np.ones(50), 0.1 * np.ones(100)])
        assert noise_floor(values, tail_taps=100) == pytest.approx(0.1)

    def test_noise_floor_short_input(self):
        assert noise_floor(np.array([0.2, 0.4]), tail_taps=100) == pytest.approx(0.3)

    def test_noise_floor_empty_rejected(self):
        with pytest.raises(ValueError):
            noise_floor(np.array([]))
