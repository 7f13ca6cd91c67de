"""Underwater noise models: ambient band noise and impulsive spikes.

The paper calls out two noise behaviours that shape its detector design:
broadband ambient noise from wind/boats/aquatic life, and "spiky" noise
(e.g. bubbles) whose short high-amplitude transients defeat plain
cross-correlation thresholds (section 2.2.1). Ambient noise is modelled
as band-limited Gaussian noise; spikes as Poisson-arriving exponentially
damped band-limited bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.constants import BAND_HIGH_HZ, BAND_LOW_HZ, SAMPLE_RATE
from repro.signals.xp import get_context, row_blocks

# scipy.signal is imported by the functions that call it, so importing
# this module does not load it (DESIGN.md §11, import budget).


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of the site noise.

    Attributes
    ----------
    ambient_rms:
        RMS amplitude of the band-limited ambient noise.
    spike_rate_hz:
        Mean number of impulsive events per second.
    spike_amplitude:
        Peak amplitude of a typical spike (relative to ambient_rms it
        sets how hostile the site is to correlation detectors).
    spike_duration_s:
        Exponential decay time constant of each spike.
    """

    ambient_rms: float = 0.005
    spike_rate_hz: float = 0.5
    spike_amplitude: float = 0.2
    spike_duration_s: float = 0.004

    def scaled(self, factor: float) -> "NoiseModel":
        """A copy with all amplitudes multiplied by ``factor``."""
        return NoiseModel(
            ambient_rms=self.ambient_rms * factor,
            spike_rate_hz=self.spike_rate_hz,
            spike_amplitude=self.spike_amplitude * factor,
            spike_duration_s=self.spike_duration_s,
        )


#: ``butter(4, [500, 7500] Hz, btype="bandpass", output="sos")`` at
#: 44.1 kHz, the rate every experiment runs at.  ``butter`` is a
#: deterministic closed-form design (bilinear transform, pole pairing),
#: so these are the exact coefficient bits it returns — the design the
#: parity-epoch baselines were generated with, pinned against a live
#: ``butter`` call by the tests.  Holding them as a literal keeps the
#: fast waveform path off ``scipy.signal`` (DESIGN.md §11).
_BANDPASS_SOS_44K1 = np.array(
    [
        [
            0.022290295761242234,
            0.04458059152248447,
            0.022290295761242234,
            1.0,
            -0.6425125056235876,
            0.14549785605941631,
        ],
        [1.0, 2.0, 1.0, 1.0, -0.7581390763092802, 0.5396008723615395],
        [1.0, -2.0, 1.0, 1.0, -1.8606085637397687, 0.8664983616405119],
        [1.0, -2.0, 1.0, 1.0, -1.9464839995219956, 0.951579136200052],
    ]
)
_BANDPASS_SOS_44K1.setflags(write=False)

#: Zero padding of the frequency-domain bandpass (:func:`_bandpass_fft`).
#: The slowest pole pair has radius ~0.9755, so the impulse response
#: falls below 1e-16 of its peak within ~1,500 samples; 8192 samples of
#: padding keep the circular wrap-around far below float64 rounding.
_FFT_FILTER_PAD = 8192


def _bandpass_edges(sample_rate: float) -> tuple:
    """Normalised ``(low, high)`` band edges of the ambient bandpass."""
    nyq = sample_rate / 2
    low = max(BAND_LOW_HZ * 0.5, 10.0) / nyq
    high = min(BAND_HIGH_HZ * 1.5, nyq * 0.95) / nyq
    return low, high


@lru_cache(maxsize=8)
def _bandpass_sos_design(sample_rate: float) -> np.ndarray:
    """The shared, read-only SOS design (a cached array every caller sees)."""
    if sample_rate == SAMPLE_RATE:
        return _BANDPASS_SOS_44K1
    from scipy import signal as sp_signal

    sos = sp_signal.butter(4, _bandpass_edges(sample_rate), btype="bandpass", output="sos")
    sos.setflags(write=False)
    return sos


def bandpass_sos(sample_rate: float) -> np.ndarray:
    """The band-limiting filter for a given rate (design is deterministic).

    ``scipy.signal.butter`` returns bit-identical coefficients on every
    call with the same arguments, so caching the design cannot change
    any filtered sample — it only removes the per-call design cost from
    hot paths (the batch renderer filters hundreds of noise rows with
    one cached SOS).  Returns a fresh writable copy each call
    (``sosfilt`` needs a writable buffer; the cached design itself is
    read-only, so no caller can corrupt a later filter).
    """
    return _bandpass_sos_design(sample_rate).copy()


def sos_response(sos: np.ndarray, freqs, fs: float) -> np.ndarray:
    """Complex frequency response of an SOS cascade at ``freqs`` (Hz).

    A numpy replacement for ``scipy.signal.sosfreqz(sos, worN=freqs,
    fs=fs)[1]`` that repeats scipy 1.17's ``freqz`` arithmetic step for
    step — ``2*pi*f/fs``, ``exp(-1j*w)``, Horner from a complex-promoted
    leading coefficient, then ``h = 1.; h *= num/den`` per section — so
    its result is bit-identical (pinned by the tests).
    """
    ctx = get_context("float64")
    sos = np.asarray(sos)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=ctx.real_dtype))
    zm1 = np.exp(-1j * (2 * np.pi * freqs / float(fs)))

    def polyval(c):
        acc = np.full(zm1.shape, c[-1], dtype=zm1.dtype)
        for coef in c[-2::-1]:
            acc = coef + acc * zm1
        return acc

    h = 1.0
    for row in sos:
        h *= polyval(row[:3]) / polyval(row[3:])
    return h


def _bandpass(x: np.ndarray, sample_rate: float) -> np.ndarray:
    """Constrain noise to the audible underwater band used by the system."""
    from scipy import signal as sp_signal

    return sp_signal.sosfilt(bandpass_sos(sample_rate), x)


@lru_cache(maxsize=32)
def _band_response(num_samples: int, sample_rate: float) -> np.ndarray:
    """The bandpass response at the rfft bins of a ``num_samples`` transform.

    Cached and read-only: every caller shares the one array.
    """
    # The bin grid is a float64 design artefact, so the parity-pinned
    # float64 context supplies the binding.
    freqs = get_context("float64").rfftfreq(num_samples, 1.0 / sample_rate)
    h = sos_response(_bandpass_sos_design(sample_rate), freqs, sample_rate)
    h.setflags(write=False)
    return h


def _bandpass_fft(x: np.ndarray, sample_rate: float) -> np.ndarray:
    """:func:`_bandpass` as a zero-padded FFT filter (no ``scipy.signal``).

    The padding outlasts the filter's impulse response, so the circular
    product equals the causal filter's output to rounding (~1e-14
    relative).
    """
    ctx = get_context("float64")
    nf = ctx.next_fast_len(x.size + _FFT_FILTER_PAD, True)
    spectrum = ctx.rfft(x, nf) * _band_response(nf, float(sample_rate))
    return ctx.irfft(spectrum, nf)[: x.size]


def ambient_noise(
    num_samples: int,
    model: NoiseModel,
    rng: np.random.Generator,
    sample_rate: float = SAMPLE_RATE,
) -> np.ndarray:
    """Band-limited Gaussian ambient noise with the model's RMS."""
    return _ambient(num_samples, model, rng, sample_rate, _bandpass)


def _ambient(num_samples, model, rng, sample_rate, bandpass) -> np.ndarray:
    """One white draw through ``bandpass``, rescaled to the model's RMS."""
    if num_samples <= 0:
        return np.zeros(0)
    white = rng.standard_normal(num_samples)
    shaped = bandpass(white, sample_rate)
    rms = np.sqrt(np.mean(shaped**2))
    if rms > 0:
        shaped = shaped * (model.ambient_rms / rms)
    return shaped


def spiky_noise(
    num_samples: int,
    model: NoiseModel,
    rng: np.random.Generator,
    sample_rate: float = SAMPLE_RATE,
) -> np.ndarray:
    """Poisson-arriving impulsive bursts (bubbles, clanks, snapping)."""
    out = np.zeros(num_samples)
    if num_samples <= 0 or model.spike_rate_hz <= 0 or model.spike_amplitude <= 0:
        return out
    duration_s = num_samples / sample_rate
    count = rng.poisson(model.spike_rate_hz * duration_s)
    spike_len = max(int(model.spike_duration_s * sample_rate * 5), 8)
    t = np.arange(spike_len) / sample_rate
    for _ in range(count):
        start = int(rng.integers(0, max(num_samples - spike_len, 1)))
        freq = rng.uniform(BAND_LOW_HZ, BAND_HIGH_HZ)
        amp = model.spike_amplitude * rng.uniform(0.3, 1.5)
        burst = amp * np.exp(-t / model.spike_duration_s) * np.sin(
            2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi)
        )
        end = min(start + spike_len, num_samples)
        out[start:end] += burst[: end - start]
    return out


def make_noise(
    num_samples: int,
    model: NoiseModel,
    rng: np.random.Generator,
    sample_rate: float = SAMPLE_RATE,
) -> np.ndarray:
    """Ambient plus spiky noise for one microphone stream."""
    return ambient_noise(num_samples, model, rng, sample_rate) + spiky_noise(
        num_samples, model, rng, sample_rate
    )


def make_noise_fft(
    num_samples: int,
    model: NoiseModel,
    rng: np.random.Generator,
    sample_rate: float = SAMPLE_RATE,
) -> np.ndarray:
    """:func:`make_noise` with the bandpass applied in the frequency domain.

    Draws exactly what :func:`make_noise` draws, in the same order
    (white, then spikes), so the generator ends in the same state; the
    ambient component differs from the ``sosfilt`` one only in rounding
    (~1e-14 relative, see :func:`_bandpass_fft`).  The fast backend's
    main-stream noise uses it to stay off ``scipy.signal``.
    """
    return _ambient(num_samples, model, rng, sample_rate, _bandpass_fft) + spiky_noise(
        num_samples, model, rng, sample_rate
    )


@lru_cache(maxsize=32)
def _band_gain_shape(num_samples: int, sample_rate: float) -> np.ndarray:
    """|H| of the ambient bandpass at the rfft bins, unit per-sample RMS.

    Normalised so that white noise shaped by these gains has unit
    per-sample variance: the full-spectrum mean of ``gain**2`` is one
    (interior rfft bins count twice, DC — and Nyquist for even sizes —
    once).  Cached and read-only: every noise row shares the array.
    """
    gain = np.abs(_band_response(num_samples, sample_rate))
    weights = np.full(gain.size, 2.0)
    weights[0] = 1.0
    if num_samples % 2 == 0:
        weights[-1] = 1.0
    mean_power = float(np.sum(weights * gain**2)) / num_samples
    # Degenerate sizes (a DC-only spectrum) carry no in-band bins: the
    # ambient component is zero, not 0/0.
    if mean_power > 0.0:
        gain = gain / np.sqrt(mean_power)
    gain.setflags(write=False)
    return gain


def synth_noise_shape(lengths) -> tuple:
    """Shape of the normal block :func:`synth_noise_rows` draws.

    Lets a producer pre-draw the block at the exact point in its
    substream where a sequential flush would have drawn it, before
    handing the RNG-free shaping to a consumer thread.
    """
    lengths = [int(n) for n in lengths]
    rows = len(lengths)
    if rows == 0 or max(lengths) <= 0:
        return (rows, 0, 2)
    nf = get_context().next_fast_len(max(lengths), True)
    return (rows, nf // 2 + 1, 2)


def synth_noise_rows(
    lengths,
    ambient_rms,
    hw_rms,
    rng: np.random.Generator,
    sample_rate: float = SAMPLE_RATE,
    workers: int | None = None,
    z: np.ndarray | None = None,
    precision: str = "float64",
) -> np.ndarray:
    """Frequency-domain synthesis of ambient + hardware noise (fast mode).

    The legacy path draws two white vectors per stream (ambient, then
    hardware), runs the ambient one through ``sosfilt`` and rescales it
    to the realised RMS.  This synthesises the *sum* directly: the sum
    of independent Gaussians is Gaussian with summed spectra, so one
    complex-normal spectrum scaled by
    ``sqrt(ambient_rms**2 * |H|**2 + hw_rms**2)`` replaces both draws,
    the filter and the RMS pass.  Statistically equivalent, not
    bit-equal: the realised ambient RMS now concentrates around
    ``ambient_rms`` (≈0.5% relative at typical lengths) instead of
    being renormalised exactly, and the spectral window is circular
    over the padded batch length.

    Returns a ``(rows, max(lengths))`` array; callers slice each row to
    its stream length.  Draws ``rows * (nf//2 + 1) * 2`` standard
    normals from ``rng`` in row order, one
    :func:`~repro.signals.xp.row_blocks` block of rows at a time, and
    shapes and inverse-transforms each block before drawing the next,
    so the working set is bounded by the block budget.
    ``standard_normal`` fills in C order, so the values drawn and the
    generator state after the call are the same as one
    ``(rows, nf//2 + 1, 2)`` draw.  The synthesis length is padded to a
    5-smooth size (a window into a stationary process is the same
    process), keeping the inverse transform on a fast path.

    ``z`` optionally supplies that normal block pre-drawn (shape
    ``(rows, nf//2 + 1, 2)``, see :func:`synth_noise_shape`): the
    pipelined executor draws it at the flush point on the producer
    thread so the substream's consumption order is bit-identical to a
    sequential run, then ships only the RNG-free shaping here (which
    slices ``z`` into the same row blocks).

    ``precision="float32"`` draws the normal block, shapes and
    inverse-transforms the spectrum all in single precision (complex64
    spectra, float32 rows): the RNG-substream contract is *per
    precision tier* — within a tier, sequential and pipelined flushes
    consume the substream identically (``z`` pre-drawing must use the
    same dtype) — and float64 keeps its historic draw bits.
    """
    ctx = get_context(precision)
    lengths = [int(n) for n in lengths]
    rows = len(lengths)
    if rows == 0:
        return np.zeros((0, 0), dtype=ctx.real_dtype)
    n = max(lengths)
    if n <= 0:
        return np.zeros((rows, 0), dtype=ctx.real_dtype)
    nf = ctx.next_fast_len(n, True)
    gain = _band_gain_shape(nf, float(sample_rate))
    amb = np.asarray(ambient_rms, dtype=float).reshape(rows)  # repro: allow[DTYPE001] f64 level mix
    hw = np.asarray(hw_rms, dtype=float).reshape(rows)  # repro: allow[DTYPE001] f64 level mix
    # Most batches carry very few distinct (ambient, hw) level pairs
    # (one per microphone model); compute each amplitude row once.
    levels: dict = {}
    for a, h in zip(amb, hw):
        key = (float(a), float(h))
        if key not in levels:
            level = np.sqrt((a * gain) ** 2 + h**2) * np.sqrt(nf / 2.0)
            levels[key] = level.astype(ctx.real_dtype, copy=False)
    if z is not None and z.shape != (rows, gain.size, 2):
        raise ValueError(
            f"pre-drawn noise block has shape {z.shape}, "
            f"expected {(rows, gain.size, 2)}"
        )
    fft_kwargs = {} if workers is None else {"workers": workers}
    out = np.empty((rows, n), dtype=ctx.real_dtype)
    blocks = list(row_blocks(rows, nf * ctx.real_dtype.itemsize))
    # One normal buffer and one spectrum buffer serve every block:
    # fresh per-block arrays would be unmapped and faulted back in on
    # each block.
    width = blocks[0][1]
    normals = np.empty((width, gain.size, 2), dtype=ctx.real_dtype) if z is None else None
    spectra = np.empty((width, gain.size), dtype=ctx.complex_dtype)
    for lo, hi in blocks:
        if z is None:
            # The draw dtype follows the working precision (float32
            # halves the per-trial RNG cost, the single largest fixed
            # cost of the float32 tier).  A pipelined producer
            # pre-drawing ``z`` must use the same dtype — see
            # ``BatchExchangeRenderer.draw_noise_block`` — so sequential
            # and pipelined flushes consume the substream identically
            # within a precision tier.
            zb = rng.standard_normal(dtype=ctx.real_dtype, out=normals[: hi - lo])
        else:
            zb = z[lo:hi]
        # ``z[..., 0] + 1j * z[..., 1]``, operand order kept, written
        # into the block's spectrum buffer.
        spectrum = np.multiply(1j, zb[..., 1], out=spectra[: hi - lo])
        np.add(zb[..., 0], spectrum, out=spectrum)
        for r in range(lo, hi):
            spectrum[r - lo] *= levels[(float(amb[r]), float(hw[r]))]
        out[lo:hi] = ctx.irfft(spectrum, nf, axis=-1, **fft_kwargs)[:, :n]
    return out
