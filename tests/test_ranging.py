"""Tests for preamble detection and direct-path estimation.

Each receiver stage runs twice: on the scalar oracle of
``tests/scalar_receiver.py`` and on its batched production counterpart
in :mod:`repro.ranging.batch` (one stream per call).
"""

from types import SimpleNamespace

import numpy as np
import pytest

import scalar_receiver
from repro.channel.multipath import PathTap
from repro.channel.render import apply_channel
from repro.constants import DIRECT_PATH_MARGIN, MIC_SEPARATION_M, SAMPLE_RATE
from repro.ranging.batch import (
    BatchArrivalEstimator,
    detect_preamble_batch,
    estimate_direct_path_fast,
    single_mic_direct_path_fast,
)
from repro.ranging.detector import detect_power_threshold
from repro.signals.preamble import make_preamble


@pytest.fixture(scope="module")
def preamble():
    return make_preamble()


def _detect_batch(stream, preamble, config=None):
    (detection,) = detect_preamble_batch([stream], preamble, [config])
    return detection


def _direct_path_batch(
    channel1,
    channel2,
    mic_separation_m=MIC_SEPARATION_M,
    sound_speed=1480.0,
    sample_rate=SAMPLE_RATE,
    margin=DIRECT_PATH_MARGIN,
    search_limit=None,
):
    return estimate_direct_path_fast(
        channel1, channel2, mic_separation_m, sound_speed, sample_rate, margin, search_limit
    )


def _single_mic_batch(channel, margin=DIRECT_PATH_MARGIN, search_limit=None):
    return single_mic_direct_path_fast(channel, margin, search_limit)


def _arrival_batch(stream_mic1, stream_mic2, preamble):
    (estimate,) = BatchArrivalEstimator(preamble).estimate_many(
        [stream_mic1], [stream_mic2], [MIC_SEPARATION_M], [1480.0]
    )
    return estimate


_RECEIVERS = {
    "scalar": SimpleNamespace(
        detect_preamble=scalar_receiver.detect_preamble,
        estimate_direct_path=scalar_receiver.estimate_direct_path,
        single_mic_direct_path=scalar_receiver.single_mic_direct_path,
        estimate_arrival=scalar_receiver.estimate_arrival,
    ),
    "batch": SimpleNamespace(
        detect_preamble=_detect_batch,
        estimate_direct_path=_direct_path_batch,
        single_mic_direct_path=_single_mic_batch,
        estimate_arrival=_arrival_batch,
    ),
}


@pytest.fixture(params=sorted(_RECEIVERS))
def rx(request):
    """One implementation of the receiver stages."""
    return _RECEIVERS[request.param]


def _stream_with_preamble(preamble, offset, noise_rms, rng, scale=1.0):
    stream = noise_rms * rng.standard_normal(offset + len(preamble) + 2_000)
    stream[offset : offset + len(preamble)] += scale * preamble.waveform
    return stream


class TestDetectPreamble:
    def test_detects_clean_preamble(self, preamble, rx):
        rng = np.random.default_rng(0)
        stream = _stream_with_preamble(preamble, 4_000, 0.01, rng)
        det = rx.detect_preamble(stream, preamble)
        assert det is not None
        # Coarse sync tolerance: within the fine stage's wrap margin.
        assert abs(det.start_index - 4_000) <= 64
        assert det.autocorr_score > 0.35

    def test_no_detection_on_noise(self, preamble, rx):
        rng = np.random.default_rng(1)
        stream = 0.05 * rng.standard_normal(20_000)
        assert rx.detect_preamble(stream, preamble) is None

    def test_spike_rejected_by_autocorr_gate(self, preamble, rx):
        rng = np.random.default_rng(2)
        stream = 0.005 * rng.standard_normal(25_000)
        # A loud impulsive burst that fools amplitude thresholds.
        stream[6_000:6_050] += 2.0 * rng.standard_normal(50)
        assert rx.detect_preamble(stream, preamble) is None

    def test_detects_at_low_snr(self, preamble, rx):
        rng = np.random.default_rng(3)
        stream = _stream_with_preamble(preamble, 3_000, 0.15, rng, scale=0.5)
        det = rx.detect_preamble(stream, preamble)
        assert det is not None
        assert abs(det.start_index - 3_000) <= 64

    def test_stream_shorter_than_preamble(self, preamble, rx):
        assert rx.detect_preamble(np.zeros(100), preamble) is None

    def test_earliest_candidate_wins(self, preamble, rx):
        # Two copies (direct + echo): detection must lock onto the first.
        rng = np.random.default_rng(4)
        n = 30_000
        stream = 0.01 * rng.standard_normal(n)
        stream[3_000 : 3_000 + len(preamble)] += 0.7 * preamble.waveform
        stream[3_400 : 3_400 + len(preamble)] += 1.0 * preamble.waveform
        det = rx.detect_preamble(stream, preamble)
        assert det is not None
        assert abs(det.start_index - 3_000) <= 64


class TestPowerThresholdBaseline:
    def test_detects_energy_onset(self, preamble):
        rng = np.random.default_rng(5)
        stream = _stream_with_preamble(preamble, 10_000, 0.01, rng)
        hit = detect_power_threshold(stream, threshold_db=6.0)
        assert hit is not None
        assert abs(hit - 10_000) < 500

    def test_fooled_by_spike(self, preamble):
        # The spike fires the power detector -- the weakness Fig. 12a
        # quantifies.
        rng = np.random.default_rng(6)
        stream = 0.01 * rng.standard_normal(30_000)
        stream[8_000:8_064] += 1.5 * rng.standard_normal(64)
        hit = detect_power_threshold(stream, threshold_db=6.0)
        assert hit is not None and abs(hit - 8_000) < 300

    def test_short_stream(self):
        assert detect_power_threshold(np.zeros(100)) is None


class TestDirectPathEstimator:
    def _channel(self, peaks, length=1_920):
        h = 0.01 * np.ones(length)
        for tap, amp in peaks:
            h[tap] = amp
        return h

    def test_joint_earliest_valid_pair(self, rx):
        h1 = self._channel([(50, 1.0), (40, 0.5)])
        h2 = self._channel([(52, 1.0), (42, 0.5)])
        est = rx.estimate_direct_path(h1, h2, sample_rate=44_100.0)
        assert est is not None
        assert est.tap == pytest.approx((40 + 42) / 2)

    def test_constraint_rejects_distant_pairs(self, rx):
        # Mic separation 0.16 m at 1480 m/s = ~4.8 samples max offset.
        h1 = self._channel([(40, 0.6), (100, 1.0)])
        h2 = self._channel([(70, 0.6), (102, 1.0)])
        est = rx.estimate_direct_path(h1, h2, sample_rate=44_100.0)
        # 40 vs 70 violates the constraint; the (100, 102) pair wins.
        assert est is not None
        assert est.tap == pytest.approx(101.0)

    def test_wrong_early_peak_rejected(self, rx):
        # A noise peak before the direct path in ONE channel only (the
        # paper's Fig. 7 "wrong peak" situation).
        h1 = self._channel([(30, 0.35), (60, 1.0)])
        h2 = self._channel([(62, 1.0)])
        est = rx.estimate_direct_path(h1, h2, sample_rate=44_100.0)
        assert est is not None
        assert est.tap >= 60.0

    def test_below_margin_ignored(self, rx):
        h1 = self._channel([(50, 0.15), (80, 1.0)])
        h2 = self._channel([(50, 0.15), (82, 1.0)])
        # 0.15 < noise floor (0.01) + lambda (0.2) -> not a candidate.
        est = rx.estimate_direct_path(h1, h2, sample_rate=44_100.0)
        assert est is not None
        assert est.tap >= 80.0

    def test_arrival_sign(self, rx):
        h1 = self._channel([(50, 1.0)])
        h2 = self._channel([(53, 1.0)])
        est = rx.estimate_direct_path(h1, h2, sample_rate=44_100.0)
        assert est.arrival_sign == -1  # mic 1 heard it first

    def test_no_valid_pair_returns_none(self, rx):
        h1 = self._channel([(50, 1.0)])
        h2 = self._channel([(500, 1.0)])
        assert rx.estimate_direct_path(h1, h2, sample_rate=44_100.0) is None

    def test_length_mismatch_rejected(self, rx):
        with pytest.raises(ValueError):
            rx.estimate_direct_path(np.ones(100), np.ones(200))

    def test_single_mic_earliest_peak(self, rx):
        h = self._channel([(30, 0.4), (60, 1.0)])
        assert rx.single_mic_direct_path(h) == 30

    def test_single_mic_none_when_flat(self, rx):
        assert rx.single_mic_direct_path(0.01 * np.ones(1_920)) is None


class TestEstimateArrival:
    def test_end_to_end_two_tap_channel(self, preamble, rx):
        rng = np.random.default_rng(7)
        fs = preamble.config.ofdm.sample_rate
        direct_delay = 600
        taps = [
            PathTap(delay_s=direct_delay / fs, amplitude=1.0),
            PathTap(delay_s=(direct_delay + 150) / fs, amplitude=0.8, bottom_bounces=1),
        ]
        streams = []
        for extra in (0, 2):  # mic 2 slightly farther
            mic_taps = [
                PathTap(t.delay_s + extra / fs, t.amplitude, t.surface_bounces, t.bottom_bounces)
                for t in taps
            ]
            body = apply_channel(preamble.waveform, mic_taps, fs)
            stream = np.concatenate([np.zeros(2_000), body])
            stream += 0.01 * rng.standard_normal(stream.size)
            streams.append(stream)
        est = rx.estimate_arrival(streams[0], streams[1], preamble)
        assert est is not None
        # The 1-5 kHz band limits time resolution to ~8 samples (the CIR
        # main lobe has strong side lobes); sub-lobe accuracy is not
        # physically available to the real system either.
        assert est.arrival_index == pytest.approx(2_000 + direct_delay, abs=8)
        assert est.arrival_sign in (-1, 0)

    def test_returns_none_without_signal(self, preamble, rx):
        rng = np.random.default_rng(8)
        noise = 0.05 * rng.standard_normal(20_000)
        assert rx.estimate_arrival(noise, noise, preamble) is None

    def test_short_mic2_row_raises(self, preamble):
        """A mic-2 row that ends inside mic 1's detected preamble has no
        per-row fallback: the batched LS estimate raises."""
        rng = np.random.default_rng(9)
        mic1 = _stream_with_preamble(preamble, 3_000, 0.01, rng)
        with pytest.raises(ValueError, match="incomplete OFDM symbol"):
            BatchArrivalEstimator(preamble).estimate_many(
                [mic1], [mic1[:3_500]], [MIC_SEPARATION_M], [1480.0]
            )
