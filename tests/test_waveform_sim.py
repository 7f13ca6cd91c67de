"""Tests for the waveform-level exchange simulator."""

import numpy as np
import pytest

from repro.channel.environment import DOCK, SWIMMING_POOL
from repro.channel.occlusion import Occlusion
from repro.protocol.messages import TimestampReport
from repro.protocol.ranging_matrix import two_way_distance
from repro.signals.preamble import make_preamble
from repro.simulate.batch_exchange import BatchExchangeRenderer
from repro.simulate.waveform_sim import ExchangeConfig, one_way_range


@pytest.fixture(scope="module")
def preamble():
    return make_preamble()


@pytest.fixture()
def config():
    # Disable the sound-speed mismatch for deterministic accuracy tests.
    return ExchangeConfig(environment=DOCK, sound_speed_error_std=0.0)


def render_one(preamble, tx, rx, config, rng):
    """Render one exchange: a K = 1 :class:`BatchExchangeRenderer`."""
    renderer = BatchExchangeRenderer(preamble)
    renderer.add(tx, rx, config, rng)
    (reception,) = renderer.render()
    return reception.mic1, reception.mic2, reception.guard, reception.true_arrival


class TestRenderOneExchange:
    def test_stream_shapes_and_truth(self, preamble, config):
        rng = np.random.default_rng(0)
        mic1, mic2, guard, true_idx = render_one(preamble, [0, 0, 2.5], [15, 0, 2.5], config, rng)
        assert mic1.size == mic2.size
        assert guard == int(config.guard_s * preamble.config.ofdm.sample_rate)
        # True arrival beyond the guard by the propagation time.
        expected = guard + 15.0 / DOCK.sound_speed(2.5) * 44_100
        assert true_idx == pytest.approx(expected, rel=0.01)

    def test_mics_see_different_channels(self, preamble, config):
        rng = np.random.default_rng(1)
        mic1, mic2, _g, _t = render_one(preamble, [0, 0, 2.5], [15, 0, 2.5], config, rng)
        assert not np.allclose(mic1, mic2)


class TestOneWayRange:
    def test_accuracy_at_short_range(self, preamble, config):
        rng = np.random.default_rng(2)
        errors = []
        for _ in range(5):
            m = one_way_range(preamble, [0, 0, 2.5], [10, 0, 2.5], config, rng)
            assert m.detected
            errors.append(abs(m.error_m))
        assert np.median(errors) < 0.6

    def test_error_nan_when_undetected(self, preamble):
        # An absurdly quiet transmission in a loud site fails detection.
        quiet = ExchangeConfig(environment=DOCK, amplitude=1e-6)
        rng = np.random.default_rng(3)
        m = one_way_range(preamble, [0, 0, 2.5], [25, 0, 2.5], quiet, rng)
        assert not m.detected
        assert np.isnan(m.estimated_distance_m)
        assert np.isnan(m.error_m)

    def test_occlusion_biases_long(self, preamble):
        rng = np.random.default_rng(4)
        base = ExchangeConfig(environment=DOCK, sound_speed_error_std=0.0)
        occluded = ExchangeConfig(
            environment=DOCK,
            sound_speed_error_std=0.0,
            occlusion=Occlusion(direct_attenuation_db=70.0, low_order_attenuation_db=20.0),
        )
        errs_base, errs_occ = [], []
        for _ in range(5):
            errs_base.append(one_way_range(preamble, [0, 0, 1.5], [12, 0, 1.5], base, rng).error_m)
            errs_occ.append(
                one_way_range(preamble, [0, 0, 1.5], [12, 0, 1.5], occluded, rng).error_m
            )
        # Occluded estimates lock onto a reflection -> biased long.
        assert np.nanmedian(errs_occ) > np.nanmedian(np.abs(errs_base))

    def test_sound_speed_mismatch_scales_with_distance(self, preamble):
        rng = np.random.default_rng(5)
        config = ExchangeConfig(environment=DOCK, sound_speed_error_std=0.02)
        errs_near, errs_far = [], []
        for _ in range(8):
            errs_near.append(one_way_range(preamble, [0, 0, 2.5], [5, 0, 2.5], config, rng).error_m)
            errs_far.append(one_way_range(preamble, [0, 0, 2.5], [30, 0, 2.5], config, rng).error_m)
        assert np.nanstd(errs_far) > np.nanstd(errs_near)

    def test_pool_environment_works(self, preamble):
        rng = np.random.default_rng(6)
        config = ExchangeConfig(environment=SWIMMING_POOL, sound_speed_error_std=0.0)
        m = one_way_range(preamble, [0, 0, 1.0], [8, 0, 1.2], config, rng)
        assert m.detected
        assert abs(m.error_m) < 1.0


def _round_trip(preamble, pos_a, pos_b, config, rng, clock_offset_s=123.4, reply_s=0.6):
    """A transmits at its local 0; B replies ``reply_s`` later.

    Each leg's arrival is a waveform-level detection; the leader's
    :func:`two_way_distance` combines the four local timestamps, so
    B's clock offset must cancel.
    """
    c = config.environment.sound_speed(2.5)
    forward = one_way_range(preamble, pos_a, pos_b, config, rng)
    backward = one_way_range(preamble, pos_b, pos_a, config, rng)
    heard_by_a = {1: reply_s + backward.estimated_distance_m / c} if backward.detected else {}
    heard_by_b = (
        {0: clock_offset_s + forward.estimated_distance_m / c} if forward.detected else {}
    )
    report_a = TimestampReport(0, 2.5, own_tx_local_s=0.0, receptions=heard_by_a)
    report_b = TimestampReport(
        1, 2.5, own_tx_local_s=clock_offset_s + reply_s, receptions=heard_by_b
    )
    return forward, backward, two_way_distance(report_a, report_b, c)


class TestTwoWayRange:
    def test_round_trip_accuracy(self, preamble, config):
        rng = np.random.default_rng(7)
        forward, backward, distance = _round_trip(preamble, [0, 0, 2.5], [12, 0, 2.5], config, rng)
        assert forward.detected and backward.detected
        # Two detection errors accumulate; stay within a couple of
        # metres at 12 m (single draws can hit a CIR side lobe).
        assert abs(distance - 12.0) < 2.0
        mean_one_way = (forward.estimated_distance_m + backward.estimated_distance_m) / 2
        assert distance == pytest.approx(mean_one_way, abs=1e-6)

    def test_failure_propagates(self, preamble):
        rng = np.random.default_rng(8)
        quiet = ExchangeConfig(environment=DOCK, amplitude=1e-6)
        forward, _backward, distance = _round_trip(preamble, [0, 0, 2.5], [20, 0, 2.5], quiet, rng)
        assert not forward.detected
        assert distance is None
