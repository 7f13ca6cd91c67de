"""Render multipath taps to sample-domain impulse responses / waveforms.

Taps live in continuous time; microphone streams are sampled at 44.1 kHz.
Fractional tap delays are rendered by linear interpolation between the
two neighbouring samples, which keeps sub-sample timing information (the
paper's uplink reports timestamps at 2-sample resolution, so this is
more than accurate enough).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.channel.multipath import PathTap
from repro.signals.xp import get_context, precision_of, row_blocks

# scipy.signal is imported by the functions that call it, so importing
# this module does not load it (DESIGN.md §11, import budget).


def fir_length_for(
    taps: Sequence[PathTap] | float,
    sample_rate: float,
    reference_delay_s: float = 0.0,
) -> int:
    """The one FIR-sizing contract shared by every waveform backend.

    A multipath channel FIR only has to cover the last tap: its length
    is ``ceil(max_delay * fs) + 2`` samples (the ``+ 2`` holds the
    linear-interpolation split of a fractional final tap).  The
    transmit waveform's length is irrelevant to the FIR — the historic
    ``wave.size + ceil(max_delay * fs) + 2`` sizing roughly doubled
    every channel convolution's transform for nothing, and until parity
    epoch 2 was only fixed inside the fast backend.  All three backends
    (legacy :func:`apply_channel`, batch :func:`apply_channel_batch`
    planning in ``simulate.batch_exchange``, and the fast engine) now
    size FIRs through this helper, so their convolutions agree on the
    work a channel actually needs.

    ``taps`` may be a tap sequence or the maximum tap delay in seconds.
    The result equals :func:`render_taps`'s natural (``length=None``)
    FIR length for the same taps.
    """
    if isinstance(taps, (int, float, np.floating)):
        max_delay = float(taps)
    else:
        if not taps:
            raise ValueError("taps must be non-empty")
        max_delay = max(t.delay_s for t in taps)
    max_delay -= reference_delay_s
    if max_delay < 0:
        raise ValueError("reference_delay_s puts the last tap at negative delay")
    return int(np.ceil(max_delay * sample_rate)) + 2


def render_taps(
    taps: Sequence[PathTap],
    sample_rate: float,
    length: int | None = None,
    reference_delay_s: float = 0.0,
) -> np.ndarray:
    """Sample-domain FIR for the tap list.

    Parameters
    ----------
    taps:
        Multipath arrivals.
    sample_rate:
        Target sampling rate (Hz).
    length:
        FIR length in samples; defaults to just covering the last tap.
    reference_delay_s:
        Subtracted from every tap delay, e.g. the direct-path delay to
        obtain a channel aligned at tap zero.

    Returns
    -------
    numpy.ndarray
        Real FIR; energy at fractional delays is split linearly between
        neighbouring samples.
    """
    if not taps:
        raise ValueError("taps must be non-empty")
    delays = np.array([t.delay_s - reference_delay_s for t in taps])
    if np.any(delays < 0):
        raise ValueError("reference_delay_s puts a tap at negative delay")
    amps = np.array([t.amplitude for t in taps])
    positions = delays * sample_rate
    # Natural length delegates to the one sizing contract.
    n = (
        fir_length_for(taps, sample_rate, reference_delay_s)
        if length is None
        else int(length)
    )
    return render_taps_positions(positions, amps, n)


def render_taps_positions(
    positions: np.ndarray,
    amplitudes: np.ndarray,
    length: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Array-first :func:`render_taps` core: sample positions -> FIR.

    Bit-identical to the scalar loop: ``np.add.at`` accumulates in
    index order, and the indices interleave ``(base, base + 1)`` per
    tap exactly as the loop does.  ``out`` (length >= ``length``,
    pre-zeroed) lets callers scatter straight into a batch slab row.
    """
    positions = np.asarray(positions, dtype=float)  # repro: allow[DTYPE001] FIR source is float64
    amplitudes = np.asarray(amplitudes, dtype=float)  # repro: allow[DTYPE001] FIR source is float64
    n = int(length)
    fir = np.zeros(n) if out is None else out
    if positions.size == 0:
        return fir
    base = np.floor(positions).astype(np.int64)
    frac = positions - base
    keep = base + 1 < n
    if not np.any(keep):
        return fir
    base, frac, amps = base[keep], frac[keep], amplitudes[keep]
    idx = np.empty(2 * base.size, dtype=np.int64)
    idx[0::2] = base
    idx[1::2] = base + 1
    vals = np.empty(2 * base.size)
    vals[0::2] = amps * (1.0 - frac)
    vals[1::2] = amps * frac
    np.add.at(fir, idx, vals)
    return fir


class CachedWaveform:
    """A transmit waveform with per-transform-length spectrum cache.

    ``dtype`` fixes the working precision at construction (a float32
    waveform caches complex64 spectra), and the FFT bindings come from
    the array-namespace facade — the float64 path binds the historic
    ``scipy.fft`` functions, so reference bits are unchanged.
    """

    def __init__(self, waveform: np.ndarray, dtype=float):
        self.waveform = np.asarray(waveform, dtype=dtype)
        self.dtype = self.waveform.dtype
        self._ctx = get_context(precision_of(self.waveform.dtype))
        self.size = self.waveform.size
        self._fft: Dict[int, np.ndarray] = {}

    def fft(self, nf: int) -> np.ndarray:
        spec = self._fft.get(nf)
        if spec is None:
            spec = self._ctx.rfft(self.waveform, nf)
            self._fft[nf] = spec
        return spec


def apply_channel_batch(
    wave: CachedWaveform | np.ndarray,
    fir_rows: Sequence[np.ndarray],
    fir_lengths: Sequence[int],
    output_lengths: Sequence[int],
    shared_length: bool = False,
    workers: int | None = None,
) -> List[np.ndarray]:
    """Batched tail of :func:`apply_channel`: ``fftconvolve`` + slice/pad.

    ``fir_rows[r][:fir_lengths[r]]`` is row ``r``'s FIR (anything
    beyond is ignored); callers size ``fir_lengths`` with
    :func:`fir_length_for` (possibly truncated to the output length),
    and the convolution uses the same ``next_fast_len`` transform size
    the scalar path picks for that FIR length, so outputs are
    bit-identical.  The waveform spectrum is computed once per distinct
    transform length.  Each group is convolved
    :func:`~repro.signals.xp.row_blocks` rows at a time and every body
    is copied out of its block, so the working set is bounded by the
    block budget; splitting rows never changes a transform, so the
    outputs do not depend on the block size.

    ``shared_length=True`` (the fast backend) pads every row to one
    shared 5-smooth transform length instead of the per-row legacy
    sizes — one stacked FFT pair, one waveform spectrum, optionally
    threaded with ``workers``.  Each row still carries its exact linear
    convolution (zero padding cannot alias it), but rounding may differ
    from the per-row transforms, so this flag is reserved for the
    non-parity backend.

    The working precision follows the cached waveform's dtype: a
    float32 waveform stacks float32 rows through complex64 transforms
    into float32 bodies.  FIR scatters stay float64 at the source
    (``np.add.at`` casts into the slab row), which loses nothing — the
    slab row is the narrow operand either way.
    """
    cached = wave if isinstance(wave, CachedWaveform) else CachedWaveform(wave)
    ctx = cached._ctx
    fulls = [cached.size + int(n) - 1 for n in fir_lengths]
    out: List[np.ndarray] = [None] * len(fir_rows)  # type: ignore[list-item]
    fft_kwargs = {} if workers is None else {"workers": workers}

    def _materialise(idx: int) -> np.ndarray:
        row = fir_rows[idx]
        n_fir = int(fir_lengths[idx])
        if isinstance(row, tuple):
            return render_taps_positions(row[0], row[1], n_fir)
        return np.asarray(row, dtype=float)[:n_fir]  # repro: allow[DTYPE001] FIR source is float64

    groups: Dict[int, List[int]] = {}
    fft_rows: List[int] = []
    for idx, full in enumerate(fulls):
        if cached.size == 1 or int(fir_lengths[idx]) == 1:
            # fftconvolve drops length-1 axes and multiplies directly.
            n_out = int(output_lengths[idx])
            fir = _materialise(idx).astype(cached.dtype, copy=False)
            body = (cached.waveform * fir)[:n_out]
            if body.size < n_out:
                body = np.pad(body, (0, n_out - body.size))
            out[idx] = body
            continue
        fft_rows.append(idx)
    if shared_length and fft_rows:
        groups[ctx.next_fast_len(max(fulls[i] for i in fft_rows), True)] = fft_rows
    else:
        for idx in fft_rows:
            groups.setdefault(ctx.next_fast_len(fulls[idx], True), []).append(idx)

    def _block(rows: List[int], nf: int) -> None:
        stacked = np.zeros((len(rows), nf), dtype=cached.dtype)
        for k, idx in enumerate(rows):
            n_fir = int(fir_lengths[idx])
            row = fir_rows[idx]
            if isinstance(row, tuple):
                # (positions, amplitudes): scatter the FIR straight
                # into the transform buffer.
                render_taps_positions(row[0], row[1], n_fir, out=stacked[k])
            else:
                stacked[k, :n_fir] = row[:n_fir]
        spec = ctx.rfft(stacked, nf, axis=-1, **fft_kwargs)
        del stacked
        # fftconvolve computes fft(wave) * fft(fir) in that operand
        # order; complex multiplication is *not* bitwise-commutative
        # under FMA, so preserve it (out= aliasing x2 is fine).
        np.multiply(cached.fft(nf), spec, out=spec)
        conv = ctx.irfft(spec, nf, axis=-1, **fft_kwargs)
        del spec
        for k, idx in enumerate(rows):
            # Copy each body out (zero tail included) so no output row
            # keeps the block's whole transform buffer alive.
            n_out = int(output_lengths[idx])
            m = min(fulls[idx], n_out)
            body = np.zeros(n_out, dtype=conv.dtype)
            body[:m] = conv[k, :m]
            out[idx] = body

    for nf, rows in groups.items():
        for lo, hi in row_blocks(len(rows), nf * cached.dtype.itemsize):
            _block(rows[lo:hi], nf)
    return out


def apply_channel(
    waveform: np.ndarray,
    taps: Sequence[PathTap],
    sample_rate: float,
    output_length: int | None = None,
) -> np.ndarray:
    """Propagate ``waveform`` through the multipath channel.

    The output is placed on an absolute time axis starting at the moment
    of transmission: a tap with delay ``d`` contributes a copy of the
    waveform starting at sample ``d * sample_rate``.

    The channel FIR is sized by :func:`fir_length_for` — just covering
    the last tap (truncated to ``output_length`` when that is shorter:
    taps at or beyond index ``output_length`` cannot influence the
    returned samples).  Since parity epoch 2 this right-sizing applies
    to *every* backend; before, the legacy/batch paths inflated the FIR
    by the (irrelevant) waveform length.

    ``output_length`` contract, relative to the natural full-convolution
    length ``waveform.size + fir_length - 1``:

    * **shorter** — the convolution is truncated: the returned prefix is
      the first ``output_length`` samples of the full result, bit-exact
      while ``output_length`` still covers the FIR.  Below that the FIR
      itself is truncated to ``output_length``, which additionally
      re-rounds the retained samples through a smaller transform and
      drops any tap whose linear-interpolation pair straddles the cut
      (``render_taps`` keeps a tap only when *both* neighbouring
      samples fit), so the final retained sample can lose that tap's
      sub-sample fraction — the historic truncation semantics,
      preserved bit-for-bit at every epoch;
    * **equal** — the full convolution, unchanged;
    * **longer** — the tail is zero.  This is the physically consistent
      extension of the time axis, not an approximation: the tap model is
      a finite FIR driven by a finite waveform, so the channel output is
      identically zero beyond the last tap's last waveform sample.

    Pinned by ``tests/test_channel.py`` (output-length contract) and
    ``tests/test_batchcorr.py`` (long-FIR truncation equivalence).
    """
    from scipy import signal as sp_signal

    wave = np.asarray(waveform, dtype=float)  # repro: allow[DTYPE001] legacy parity path is float64
    if not taps:
        raise ValueError("taps must be non-empty")
    fir_length = fir_length_for(taps, sample_rate)
    # Default output keeps the historic time axis: one sample past the
    # natural full-convolution length ``wave.size + fir_length - 1``.
    n = wave.size + fir_length if output_length is None else int(output_length)
    fir = render_taps(taps, sample_rate, length=min(n, fir_length))
    out = sp_signal.fftconvolve(wave, fir, mode="full")[:n]
    if out.size < n:
        out = np.pad(out, (0, n - out.size))
    return out


def directivity_gain(
    device_azimuth_rad: float,
    device_polar_rad: float,
    direction_azimuth_rad: float,
    direction_polar_rad: float,
    backlobe_gain: float = 0.25,
    exponent: float = 1.0,
) -> float:
    """Speaker/microphone directivity factor for an off-axis peer.

    The phone's speaker and microphones face along the device axis; the
    paper's orientation experiment (Fig. 14a) shows a modest error
    increase when the devices do not face each other. We model the
    element as a cardioid-like pattern with a back-lobe floor::

        g = backlobe + (1 - backlobe) * ((1 + cos(angle)) / 2) ** exponent

    where ``angle`` is the angle between the device axis and the
    direction towards the peer.

    All angles in radians; azimuth in the horizontal plane, polar from
    the vertical (device pointing "sideways" has polar ~ pi/2).
    """
    if not 0.0 <= backlobe_gain <= 1.0:
        raise ValueError("backlobe_gain must be in [0, 1]")

    def unit(azimuth: float, polar: float) -> np.ndarray:
        return np.array(
            [
                np.sin(polar) * np.cos(azimuth),
                np.sin(polar) * np.sin(azimuth),
                np.cos(polar),
            ]
        )

    axis = unit(device_azimuth_rad, device_polar_rad)
    towards = unit(direction_azimuth_rad, direction_polar_rad)
    cos_angle = float(np.clip(np.dot(axis, towards), -1.0, 1.0))
    main = ((1.0 + cos_angle) / 2.0) ** exponent
    return backlobe_gain + (1.0 - backlobe_gain) * main
