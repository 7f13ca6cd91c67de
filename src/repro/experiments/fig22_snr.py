"""Fig. 22 (appendix): per-subcarrier SNR between two phones.

The paper sends an 8-symbol OFDM preamble at 10/20/28 m in the
boathouse and estimates per-subcarrier SNR with frequency-domain
channel estimation. We reproduce the measurement: repeated symbols see
the same channel, so the per-bin mean is signal and the per-bin
variance across symbols is noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.environment import BOATHOUSE
from repro.channel.multipath import image_method_tap_arrays
from repro.channel.noise import make_noise, make_noise_fft
from repro.channel.render import CachedWaveform, apply_channel_batch, fir_length_for
from repro.experiments import engine
from repro.signals.batchcorr import fft_workers
from repro.signals.ofdm import OfdmConfig, band_bins, ofdm_symbol_from_zc
from repro.signals.xp import get_context

#: Paper: rough SNR ranges (dB) visible in Fig. 22 per distance.
PAPER_SNR_RANGE_DB = {10: (15, 40), 20: (5, 30), 28: (0, 25)}


@dataclass(frozen=True)
class SnrProfile:
    """Per-subcarrier SNR estimate at one distance."""

    distance_m: float
    frequencies_hz: np.ndarray
    snr_db: np.ndarray

    @property
    def median_snr_db(self) -> float:
        return float(np.median(self.snr_db))


def run_snr_measurement(
    rng: np.random.Generator,
    distances_m: Sequence[float] = (10.0, 20.0, 28.0),
    num_symbols: int = 8,
    depth_m: float = 1.0,
    backend: str = "batch",
    precision: str = "float64",
) -> List[SnrProfile]:
    """Estimate per-subcarrier SNR from repeated OFDM symbols.

    ``backend="batch"`` renders every distance's channel in one grouped
    convolution pass (the samples and the per-distance noise draw order
    of the per-distance oracle in ``tests/legacy_oracles.py``).  ``backend="fast"`` additionally shares
    one padded transform length and threads the stacked FFTs; the noise
    draws stay on the main stream (this figure's noise cost is trivial),
    band-limited by an FFT filter instead of ``sosfilt``
    (:func:`~repro.channel.noise.make_noise_fft`).
    """
    engine.check_backend(backend, "fig22", precision=precision)
    ctx = get_context(precision)
    ofdm = OfdmConfig()
    bins = band_bins(ofdm)
    base = ofdm_symbol_from_zc(ofdm, add_cp=False)
    base_bins_fft = ctx.fft(base)[bins].astype(ctx.complex_dtype, copy=False)
    fs = ofdm.sample_rate
    sound_speed = BOATHOUSE.sound_speed(depth_m)
    # Continuous transmission of identical symbols; segment at symbol
    # boundaries after the channel settles.
    wave = np.tile(base, num_symbols + 2)

    specs = []
    for distance in distances_m:
        tx = np.array([0.0, 0.0, depth_m])
        rx = np.array([float(distance), 0.0, depth_m])
        delays, amps, _surf, _bot = image_method_tap_arrays(
            tx,
            rx,
            BOATHOUSE.water_depth_m,
            sound_speed,
            max_order=BOATHOUSE.max_image_order,
            surface_coeff=BOATHOUSE.surface_coeff,
            bottom_coeff=BOATHOUSE.bottom_coeff,
        )
        specs.append((delays, amps, fir_length_for(float(delays.max()), fs)))
    first_arrivals = [int(delays[0] * fs) for delays, _, _ in specs]
    fast = backend == "fast"
    bodies = apply_channel_batch(
        CachedWaveform(wave, dtype=ctx.real_dtype),
        [(delays * fs, amps) for delays, amps, _ in specs],
        # One FIR-sizing contract for every backend (parity epoch 2).
        [fir_len for _, _, fir_len in specs],
        [wave.size + fir_len for _, _, fir_len in specs],
        shared_length=fast,
        workers=fft_workers() if fast else None,
    )
    # Noise draws stay on the main float64 stream, one per distance in
    # order; only the carried samples follow the working dtype.  Fast
    # filters the same draws in the frequency domain instead of through
    # sosfilt (equal to ~1e-14 relative): with only a few symbols,
    # re-randomised noise would move the min/max SNR by more than the
    # contract allows.
    noise = make_noise_fft if fast else make_noise
    received_by_distance = [
        body + noise(body.size, BOATHOUSE.noise, rng, fs).astype(body.dtype, copy=False)
        for body in bodies
    ]

    profiles = []
    for distance, received, first_arrival in zip(
        distances_m, received_by_distance, first_arrivals
    ):
        estimates = []
        for k in range(1, num_symbols + 1):
            start = first_arrival + k * ofdm.n_fft
            symbol = received[start : start + ofdm.n_fft]
            if symbol.size < ofdm.n_fft:
                break
            estimates.append(ctx.fft(symbol)[bins] / base_bins_fft)
        h = np.vstack(estimates)
        signal_power = np.abs(h.mean(axis=0)) ** 2
        noise_power = h.var(axis=0) + 1e-15
        snr_db = 10.0 * np.log10(signal_power / noise_power)
        profiles.append(
            SnrProfile(
                distance_m=float(distance),
                frequencies_hz=bins * ofdm.bin_spacing_hz,
                snr_db=snr_db,
            )
        )
    return profiles


def format_snr(profiles: List[SnrProfile]) -> str:
    lines = ["Fig. 22: distance -> median / min / max subcarrier SNR (dB) [paper range]"]
    for p in profiles:
        ref = PAPER_SNR_RANGE_DB.get(int(p.distance_m))
        ref_str = f"{ref[0]}..{ref[1]}" if ref else "-"
        lines.append(
            f"  {p.distance_m:>4.0f} m -> {p.median_snr_db:5.1f} / "
            f"{p.snr_db.min():5.1f} / {p.snr_db.max():5.1f}  [{ref_str}]"
        )
    return "\n".join(lines)


@engine.register(
    name="fig22",
    title="Per-subcarrier SNR between two phones",
    paper_ref="Fig. 22",
    paper={"snr_range_db": PAPER_SNR_RANGE_DB},
    cost="cheap",
    sweepable=("num_symbols", "backend"),
    backends=engine.WAVEFORM_BACKENDS,
)
def campaign(
    rng,
    *,
    scale: float = 1.0,
    num_symbols: int = 8,
    backend: str = "batch",
    precision: str = "float64",
    pipeline: Optional[int] = None,
):
    """SNR profiles at 10/20/28 m (scale bounds the symbol count).

    ``pipeline`` is accepted for engine uniformity (every waveform
    experiment takes it) but has nothing to overlap: the whole sweep is
    one Phase-A pass and a single Phase-B render, so the knob is a
    documented no-op here.
    """
    del pipeline
    profiles = run_snr_measurement(
        rng,
        num_symbols=engine.scaled(num_symbols, scale, minimum=2),
        backend=backend,
        precision=precision,
    )
    measured = {
        "median_snr_db": {int(p.distance_m): p.median_snr_db for p in profiles},
        "min_snr_db": {int(p.distance_m): float(p.snr_db.min()) for p in profiles},
        "max_snr_db": {int(p.distance_m): float(p.snr_db.max()) for p in profiles},
    }
    return engine.ExperimentOutput(measured=measured, report=format_snr(profiles))
