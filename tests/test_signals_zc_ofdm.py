"""Tests for Zadoff-Chu sequences and OFDM symbol construction."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.signals.ofdm import (
    OfdmConfig,
    band_bins,
    modulate_symbol,
    ofdm_symbol_from_zc,
)
from repro.signals.xp import get_context
from repro.signals.zc import zadoff_chu


def cyclic_autocorrelation(sequence: np.ndarray) -> np.ndarray:
    """Cyclic autocorrelation magnitude of a sequence, normalised to 1.

    For a proper ZC sequence this is 1 at lag zero and ~0 elsewhere (the
    CAZAC property).
    """
    seq = np.asarray(sequence)
    ctx = get_context()
    spectrum = ctx.fft(seq)
    corr = ctx.ifft(spectrum * np.conj(spectrum))
    mag = np.abs(corr)
    peak = mag[0]
    if peak == 0:
        raise ValueError("sequence has zero energy")
    return mag / peak


def demodulate_symbol(config: OfdmConfig, samples: np.ndarray) -> np.ndarray:
    """FFT a received symbol (without CP) and return the in-band bins."""
    x = np.asarray(samples, dtype=float)
    if x.size != config.n_fft:
        raise ValueError(f"expected {config.n_fft} samples, got {x.size}")
    spectrum = get_context().fft(x)
    return spectrum[band_bins(config)]


class TestZadoffChu:
    def test_unit_magnitude(self):
        seq = zadoff_chu(139)
        assert np.allclose(np.abs(seq), 1.0)

    def test_cazac_property_odd_length(self):
        seq = zadoff_chu(139, root=1)
        corr = cyclic_autocorrelation(seq)
        assert corr[0] == pytest.approx(1.0)
        assert np.max(corr[1:]) < 1e-8

    def test_cazac_property_even_length(self):
        seq = zadoff_chu(128, root=3)
        corr = cyclic_autocorrelation(seq)
        assert np.max(corr[1:]) < 1e-8

    def test_shift_rolls(self):
        base = zadoff_chu(31)
        shifted = zadoff_chu(31, shift=5)
        assert np.allclose(shifted, np.roll(base, 5))

    def test_invalid_root_rejected(self):
        with pytest.raises(ValueError):
            zadoff_chu(10, root=0)
        with pytest.raises(ValueError):
            zadoff_chu(10, root=5)  # gcd(5, 10) != 1

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            zadoff_chu(0)

    @given(
        length=st.integers(11, 200).filter(lambda n: n % 2 == 1),
        root=st.integers(1, 10),
    )
    def test_roots_coprime_give_cazac(self, length, root):
        import math

        if math.gcd(root, length) != 1:
            with pytest.raises(ValueError):
                zadoff_chu(length, root=root)
            return
        corr = cyclic_autocorrelation(zadoff_chu(length, root=root))
        assert np.max(corr[1:]) < 1e-6


class TestOfdmConfig:
    def test_paper_parameters(self):
        cfg = OfdmConfig()
        assert cfg.n_fft == 1920
        assert cfg.cp_len == 540
        assert cfg.bin_spacing_hz == pytest.approx(44_100 / 1920)

    def test_band_bins_inside_band(self):
        cfg = OfdmConfig()
        bins = band_bins(cfg)
        freqs = cfg.bin_frequency(bins)
        assert freqs.min() >= 1_000.0
        assert freqs.max() <= 5_000.0
        assert len(bins) > 100  # ~174 bins for the paper's parameters

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            OfdmConfig(cp_len=1920)
        with pytest.raises(ValueError):
            OfdmConfig(band_low_hz=5_000.0, band_high_hz=1_000.0)
        with pytest.raises(ValueError):
            OfdmConfig(band_high_hz=30_000.0)


class TestModulation:
    def test_symbol_is_real_and_normalised(self):
        sym = ofdm_symbol_from_zc(OfdmConfig(), add_cp=False)
        assert np.isrealobj(sym)
        assert np.max(np.abs(sym)) == pytest.approx(1.0)

    def test_cp_is_tail_copy(self):
        cfg = OfdmConfig()
        sym = ofdm_symbol_from_zc(cfg, add_cp=True)
        assert len(sym) == cfg.n_fft + cfg.cp_len
        assert np.allclose(sym[: cfg.cp_len], sym[-cfg.cp_len :])

    def test_wrong_bin_count_rejected(self):
        cfg = OfdmConfig()
        with pytest.raises(ValueError):
            modulate_symbol(cfg, np.ones(3, dtype=complex))

    def test_demodulate_roundtrip(self):
        cfg = OfdmConfig()
        bins = band_bins(cfg)
        rng = np.random.default_rng(0)
        values = np.exp(1j * rng.uniform(0, 2 * np.pi, len(bins)))
        sym = modulate_symbol(cfg, values, add_cp=False)
        recovered = demodulate_symbol(cfg, sym)
        # Up to the common normalisation factor, phases must survive.
        ratio = recovered / values
        assert np.allclose(ratio, ratio[0], atol=1e-9)

    def test_demodulate_wrong_length(self):
        cfg = OfdmConfig()
        with pytest.raises(ValueError):
            demodulate_symbol(cfg, np.zeros(100))

    def test_energy_confined_to_band(self):
        cfg = OfdmConfig()
        sym = ofdm_symbol_from_zc(cfg, add_cp=False)
        spectrum = np.abs(np.fft.rfft(sym))
        freqs = np.fft.rfftfreq(cfg.n_fft, d=1 / cfg.sample_rate)
        in_band = spectrum[(freqs >= 990) & (freqs <= 5_010)]
        out_band = spectrum[(freqs < 990) | (freqs > 5_010)]
        assert in_band.sum() > 1e3 * out_band.sum()
