"""Tests for the underwater channel: multipath, noise, occlusion, render."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.environment import BOATHOUSE, DOCK, ENVIRONMENTS, SWIMMING_POOL, VIEWPOINT
from repro.channel.multipath import PathTap, image_method_taps
from repro.channel import noise as noise_mod
from repro.channel.noise import (
    NoiseModel,
    ambient_noise,
    bandpass_sos,
    make_noise,
    make_noise_fft,
    sos_response,
    spiky_noise,
)
from repro.channel.occlusion import Occlusion
from repro.physics.absorption import absorption_loss_db
from repro.channel.render import (
    apply_channel,
    directivity_gain,
    fir_length_for,
    render_taps,
)
from scalar_receiver import apply_occlusion


def delay_spread(taps, power_fraction=0.99):
    """Delay spread (s) containing ``power_fraction`` of the tap energy.

    Computed from the first arrival to the arrival at which the
    cumulative energy crosses the requested fraction.
    """
    if not taps:
        raise ValueError("taps must be non-empty")
    if not 0 < power_fraction <= 1:
        raise ValueError("power_fraction must be in (0, 1]")
    ordered = sorted(taps, key=lambda t: t.delay_s)
    energies = np.array([t.amplitude**2 for t in ordered])
    total = energies.sum()
    if total == 0:
        return 0.0
    cumulative = np.cumsum(energies) / total
    idx = int(np.searchsorted(cumulative, power_fraction))
    idx = min(idx, len(ordered) - 1)
    return ordered[idx].delay_s - ordered[0].delay_s


class TestImageMethod:
    def test_direct_path_first_and_exact(self):
        taps = image_method_taps([0, 0, 2], [20, 0, 3], 9.0, 1_500.0)
        assert taps[0].is_direct
        true_delay = np.sqrt(20**2 + 1**2) / 1_500.0
        assert taps[0].delay_s == pytest.approx(true_delay, rel=1e-9)

    def test_direct_tap_is_spreading_times_absorption(self):
        # 1/r spherical spreading (0 dB at the 1 m reference) times
        # Thorp absorption over the path.
        for dist in (1.0, 10.0, 30.0):
            taps = image_method_taps([0, 0, 2.0], [dist, 0, 2.0], 5.0, 1_500.0)
            expected = (1.0 / dist) * 10.0 ** (-absorption_loss_db(dist, 3_000.0) / 20.0)
            assert taps[0].amplitude == pytest.approx(expected, rel=1e-12)

    def test_direct_amplitude_falls_with_range(self):
        near = image_method_taps([0, 0, 2.0], [10.0, 0, 2.0], 5.0, 1_500.0)[0]
        far = image_method_taps([0, 0, 2.0], [45.0, 0, 2.0], 5.0, 1_500.0)[0]
        assert near.amplitude < 1.0
        assert far.amplitude < near.amplitude

    def test_surface_reflection_present(self):
        taps = image_method_taps([0, 0, 2], [20, 0, 2], 9.0, 1_500.0)
        surf = [t for t in taps if t.surface_bounces == 1 and t.bottom_bounces == 0]
        assert len(surf) == 1
        expected = np.sqrt(20**2 + 4**2) / 1_500.0
        assert surf[0].delay_s == pytest.approx(expected, rel=1e-9)
        # Pressure-release surface flips the phase.
        assert surf[0].amplitude < 0

    def test_bottom_reflection_delay(self):
        taps = image_method_taps([0, 0, 2], [20, 0, 2], 9.0, 1_500.0)
        bottom = [t for t in taps if t.bottom_bounces == 1 and t.surface_bounces == 0]
        expected = np.sqrt(20**2 + 14**2) / 1_500.0
        assert bottom[0].delay_s == pytest.approx(expected, rel=1e-9)

    def test_higher_order_weaker(self):
        taps = image_method_taps(
            [0, 0, 2], [15, 0, 2], 9.0, 1_500.0, max_order=4, bottom_coeff=0.5
        )
        direct = taps[0]
        multi = [t for t in taps if t.surface_bounces + t.bottom_bounces >= 3]
        assert all(abs(t.amplitude) < abs(direct.amplitude) for t in multi)

    def test_shallow_water_denser(self):
        deep = image_method_taps([0, 0, 2], [20, 0, 2], 9.0, 1_500.0, max_order=3)
        shallow = image_method_taps([0, 0, 1], [20, 0, 1], 1.5, 1_500.0, max_order=3)
        # Same order -> same image count, but shallow arrivals bunch up.
        assert delay_spread(shallow) < delay_spread(deep)

    def test_validation(self):
        with pytest.raises(ValueError):
            image_method_taps([0, 0, -1], [10, 0, 2], 9.0, 1_500.0)
        with pytest.raises(ValueError):
            image_method_taps([0, 0, 2], [10, 0, 12], 9.0, 1_500.0)
        with pytest.raises(ValueError):
            image_method_taps([0, 0, 2], [10, 0, 2], 9.0, -5.0)
        with pytest.raises(ValueError):
            image_method_taps([0, 0, 2], [10, 0, 2], 9.0, 1_500.0, surface_coeff=0.5)

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(1.0, 40.0),
        z_tx=st.floats(0.1, 8.9),
        z_rx=st.floats(0.1, 8.9),
    )
    def test_taps_sorted_and_direct_dominates_early(self, x, z_tx, z_rx):
        taps = image_method_taps([0, 0, z_tx], [x, 0, z_rx], 9.0, 1_500.0)
        delays = [t.delay_s for t in taps]
        assert delays == sorted(delays)
        assert taps[0].is_direct

    def test_delay_spread_monotone_in_fraction(self):
        taps = image_method_taps([0, 0, 2], [20, 0, 2], 9.0, 1_500.0, max_order=4)
        assert delay_spread(taps, 0.5) <= delay_spread(taps, 0.99)

    def test_delay_spread_validation(self):
        with pytest.raises(ValueError):
            delay_spread([])
        taps = image_method_taps([0, 0, 2], [10, 0, 2], 9.0, 1_500.0)
        with pytest.raises(ValueError):
            delay_spread(taps, 1.5)


class TestNoise:
    def test_ambient_rms_matches_model(self):
        rng = np.random.default_rng(0)
        model = NoiseModel(ambient_rms=0.02)
        noise = ambient_noise(44_100, model, rng)
        assert np.sqrt(np.mean(noise**2)) == pytest.approx(0.02, rel=0.05)

    def test_spiky_noise_rate(self):
        rng = np.random.default_rng(1)
        model = NoiseModel(spike_rate_hz=5.0, spike_amplitude=1.0)
        noise = spiky_noise(10 * 44_100, model, rng)
        # Spikes stand far above zero baseline.
        assert np.max(np.abs(noise)) > 0.3

    def test_zero_rate_no_spikes(self):
        rng = np.random.default_rng(2)
        model = NoiseModel(spike_rate_hz=0.0)
        assert np.all(spiky_noise(44_100, model, rng) == 0)

    def test_make_noise_combines(self):
        rng = np.random.default_rng(3)
        model = NoiseModel(ambient_rms=0.01, spike_rate_hz=1.0)
        noise = make_noise(44_100, model, rng)
        assert noise.size == 44_100
        assert np.std(noise) > 0

    def test_scaled(self):
        model = NoiseModel(ambient_rms=0.01, spike_amplitude=0.2)
        scaled = model.scaled(2.0)
        assert scaled.ambient_rms == pytest.approx(0.02)
        assert scaled.spike_amplitude == pytest.approx(0.4)
        assert scaled.spike_rate_hz == model.spike_rate_hz

    def test_empty_request(self):
        rng = np.random.default_rng(4)
        assert ambient_noise(0, NoiseModel(), rng).size == 0


class TestScipyFreeNoise:
    """The numpy replacements for ``butter``, ``sosfreqz`` and ``sosfilt``.

    scipy.signal is imported here only to pin each replacement to it.
    """

    @pytest.mark.parametrize("fs", [44_100, 44_100.0, 48_000.0, 16_000])
    def test_design_equals_butter(self, fs):
        from scipy import signal as sp_signal

        edges = noise_mod._bandpass_edges(fs)
        expected = sp_signal.butter(4, edges, btype="bandpass", output="sos")
        assert np.array_equal(noise_mod._bandpass_sos_design(fs), expected)

    def test_44k1_design_is_the_literal_table(self):
        assert noise_mod._bandpass_sos_design(44_100.0) is noise_mod._BANDPASS_SOS_44K1

    @pytest.mark.parametrize("num_samples", [1, 2, 3, 8, 17, 4_096, 4_097, 30_000])
    @pytest.mark.parametrize("fs", [44_100.0, 48_000.0])
    def test_sos_response_equals_sosfreqz(self, num_samples, fs):
        from scipy import signal as sp_signal

        sos = noise_mod._bandpass_sos_design(fs)
        freqs = np.fft.rfftfreq(num_samples, 1.0 / fs)
        _, expected = sp_signal.sosfreqz(sos, worN=freqs, fs=fs)
        got = sos_response(sos, freqs, fs)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_sos_response_off_grid_frequencies(self):
        from scipy import signal as sp_signal

        sos = sp_signal.butter(3, [0.1, 0.4], btype="bandpass", output="sos")
        freqs = np.array([0.0, 13.5, 999.25, 7_000.0, 22_050.0])
        _, expected = sp_signal.sosfreqz(sos, worN=freqs, fs=44_100)
        assert np.array_equal(sos_response(sos, freqs, 44_100), expected)

    def test_cached_designs_and_gains_are_read_only(self):
        design = noise_mod._bandpass_sos_design(44_100.0)
        gain = noise_mod._band_gain_shape(1_024, 44_100.0)
        response = noise_mod._band_response(1_024, 44_100.0)
        for shared in (design, gain, response, noise_mod._bandpass_sos_design(48_000.0)):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.0
        # The degenerate (DC-only) gain is shared too.
        with pytest.raises(ValueError, match="read-only"):
            noise_mod._band_gain_shape(1, 44_100.0)[0] = 1.0
        # bandpass_sos hands out a private writable copy.
        sos = bandpass_sos(44_100.0)
        sos[0, 0] = 0.0
        assert noise_mod._bandpass_sos_design(44_100.0)[0, 0] != 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        num_samples=st.integers(1, 20_000),
        seed=st.integers(0, 2**32 - 1),
        model=st.sampled_from([BOATHOUSE.noise, NoiseModel(spike_rate_hz=20.0)]),
    )
    def test_fft_noise_matches_make_noise(self, num_samples, seed, model):
        legacy_rng = np.random.default_rng(seed)
        fft_rng = np.random.default_rng(seed)
        expected = make_noise(num_samples, model, legacy_rng)
        got = make_noise_fft(num_samples, model, fft_rng)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        # Same draws in the same order: the generators end in one state.
        assert fft_rng.bit_generator.state == legacy_rng.bit_generator.state

    def test_fft_noise_empty_request(self):
        assert make_noise_fft(0, NoiseModel(), np.random.default_rng(0)).size == 0


class TestEnvironments:
    def test_all_presets_registered(self):
        assert set(ENVIRONMENTS) == {
            "swimming_pool",
            "dock",
            "viewpoint",
            "boathouse",
        }

    def test_paper_geometries(self):
        assert DOCK.water_depth_m == pytest.approx(9.0)
        assert DOCK.length_m == pytest.approx(50.0)
        assert SWIMMING_POOL.water_depth_m == pytest.approx(2.5)
        assert VIEWPOINT.water_depth_m == pytest.approx(1.5)
        assert BOATHOUSE.water_depth_m == pytest.approx(5.0)

    def test_sound_speed_plausible(self):
        for env in ENVIRONMENTS.values():
            assert 1_400 < env.sound_speed(1.0) < 1_600

    def test_boathouse_noisiest(self):
        assert BOATHOUSE.noise.ambient_rms >= DOCK.noise.ambient_rms
        assert BOATHOUSE.noise.spike_rate_hz >= DOCK.noise.spike_rate_hz


class TestOcclusion:
    def test_direct_attenuated(self):
        taps = image_method_taps([0, 0, 2], [20, 0, 2], 9.0, 1_500.0)
        occluded = apply_occlusion(taps, Occlusion(direct_attenuation_db=60.0))
        assert abs(occluded[0].amplitude) == pytest.approx(
            abs(taps[0].amplitude) * 1e-3
        )

    def test_high_order_untouched(self):
        taps = image_method_taps([0, 0, 2], [20, 0, 2], 9.0, 1_500.0, max_order=3)
        occluded = apply_occlusion(taps, Occlusion())
        for before, after in zip(taps, occluded):
            if before.surface_bounces + before.bottom_bounces >= 2:
                assert after.amplitude == pytest.approx(before.amplitude)

    def test_occlusion_makes_reflection_strongest(self):
        taps = image_method_taps([0, 0, 2], [20, 0, 2], 9.0, 1_500.0)
        occluded = apply_occlusion(taps, Occlusion(direct_attenuation_db=60.0))
        strongest = max(occluded, key=lambda t: abs(t.amplitude))
        assert not strongest.is_direct


class TestRender:
    def test_render_integer_delay(self):
        taps = [PathTap(delay_s=10 / 44_100.0, amplitude=0.5)]
        fir = render_taps(taps, 44_100.0)
        assert fir[10] == pytest.approx(0.5)

    def test_render_fractional_delay_split(self):
        taps = [PathTap(delay_s=10.25 / 44_100.0, amplitude=1.0)]
        fir = render_taps(taps, 44_100.0)
        assert fir[10] == pytest.approx(0.75)
        assert fir[11] == pytest.approx(0.25)

    def test_reference_delay_shift(self):
        taps = [PathTap(delay_s=0.01, amplitude=1.0)]
        fir = render_taps(taps, 44_100.0, reference_delay_s=0.01)
        assert fir[0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            render_taps(taps, 44_100.0, reference_delay_s=0.02)

    def test_apply_channel_delays_waveform(self):
        wave = np.zeros(100)
        wave[0] = 1.0
        taps = [PathTap(delay_s=50 / 44_100.0, amplitude=1.0)]
        out = apply_channel(wave, taps, 44_100.0)
        assert int(np.argmax(out)) == 50

    def test_apply_channel_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.ones(10), [], 44_100.0)

    def test_fir_length_for_is_the_shared_sizing_contract(self):
        fs = 44_100.0
        taps = [
            PathTap(delay_s=10.25 / fs, amplitude=1.0),
            PathTap(delay_s=30.0 / fs, amplitude=-0.5),
        ]
        # Just covers the last tap's interpolation pair; equals the
        # natural render_taps length; accepts a bare max-delay scalar.
        assert fir_length_for(taps, fs) == 32
        assert fir_length_for(taps, fs) == render_taps(taps, fs).size
        assert fir_length_for(30.0 / fs, fs) == 32
        with pytest.raises(ValueError):
            fir_length_for([], fs)
        with pytest.raises(ValueError):
            fir_length_for(taps, fs, reference_delay_s=1.0)

    def test_apply_channel_output_length_contract(self):
        """Satellite regression: output_length shorter / equal / longer
        than the natural full-convolution length."""
        fs = 44_100.0
        rng = np.random.default_rng(42)
        wave = rng.standard_normal(120)
        taps = [
            PathTap(delay_s=10.25 / fs, amplitude=1.0),
            PathTap(delay_s=30.0 / fs, amplitude=-0.5),
        ]
        fir_len = fir_length_for(taps, fs)
        natural = wave.size + fir_len - 1
        full = apply_channel(wave, taps, fs, output_length=natural)
        assert full.size == natural

        # Shorter (but still covering the FIR): bit-exact prefix.
        shorter = apply_channel(wave, taps, fs, output_length=natural - 7)
        assert np.array_equal(shorter, full[: natural - 7])

        # Shorter than the FIR itself: here the dropped tap (at sample
        # 30) lies wholly beyond the cut, so the prefix is unchanged up
        # to the smaller transform's rounding.
        tiny = apply_channel(wave, taps, fs, output_length=20)
        assert tiny.size == 20
        assert np.allclose(tiny, full[:20], atol=1e-12)

        # A fractional tap *straddling* the cut is dropped whole —
        # render_taps keeps a tap only when both interpolation samples
        # fit — so the final retained sample loses that tap's
        # sub-sample fraction (the documented historic semantics).
        impulse = np.zeros(4)
        impulse[0] = 1.0
        straddle = [PathTap(delay_s=19.5 / fs, amplitude=1.0)]
        kept = apply_channel(impulse, straddle, fs, output_length=21)
        cut = apply_channel(impulse, straddle, fs, output_length=20)
        assert kept[19] == pytest.approx(0.5)  # half the tap lands at 19
        assert cut[19] == pytest.approx(0.0)  # tap dropped whole at the cut

        # Longer: the tail is exactly zero — the channel output of a
        # finite waveform through a finite FIR *is* zero there, so the
        # pad is the consistent extension of the time axis.
        longer = apply_channel(wave, taps, fs, output_length=natural + 25)
        assert longer.size == natural + 25
        assert np.array_equal(longer[:natural], full)
        assert not longer[natural:].any()

        # Default output length: one sample past the natural length
        # (the historic time axis, preserved across the epoch-2 fix).
        assert apply_channel(wave, taps, fs).size == wave.size + fir_len

    def test_directivity_peak_on_axis(self):
        on_axis = directivity_gain(0.0, np.pi / 2, 0.0, np.pi / 2)
        off_axis = directivity_gain(0.0, np.pi / 2, np.pi, np.pi / 2)
        assert on_axis == pytest.approx(1.0)
        assert off_axis == pytest.approx(0.25)
        assert 0.25 < directivity_gain(0.0, np.pi / 2, np.pi / 2, np.pi / 2) < 1.0

    def test_directivity_validation(self):
        with pytest.raises(ValueError):
            directivity_gain(0, 0, 0, 0, backlobe_gain=1.5)
