"""Correlation primitives for preamble detection and coarse sync.

Two statistics are used (paper section 2.2.1):

* **Cross-correlation** between the microphone stream and the known
  preamble gives candidate arrival positions but is vulnerable to
  impulsive underwater noise (bubbles) that produces tall spurious peaks.
* **Segment auto-correlation** exploits the 4-symbol PN structure: the
  received stream is split into the four symbol segments, each is
  multiplied by its PN sign, and segments are correlated against each
  other. Since all four symbols traverse nearly the same multipath, the
  inter-segment correlation is high for a genuine preamble and low for
  noise, however spiky.

This module holds the single-stream cross-correlations (the fig12
baselines correlate one chirp stream at a time).  The receiver's
stacked cross-correlations and the segment auto-correlation gate live
in :mod:`repro.signals.batchcorr`.
"""

from __future__ import annotations

import numpy as np

# scipy.signal is imported by the functions that call it, so importing
# this module does not load it (DESIGN.md §11, import budget).


def cross_correlate(stream: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Raw linear cross-correlation of ``stream`` with ``template``.

    Output index ``i`` corresponds to the template starting at stream
    sample ``i`` (mode="valid"-style alignment but full length: the
    output has ``len(stream)`` entries, where the final
    ``len(template) - 1`` entries correlate against a template that
    overhangs the stream end — the overhanging template samples see
    implicit zeros, so those tail entries taper rather than being
    zero).
    """
    from scipy import signal as sp_signal

    stream = np.asarray(stream, dtype=float)
    template = np.asarray(template, dtype=float)
    if template.size == 0 or stream.size == 0:
        raise ValueError("stream and template must be non-empty")
    corr = sp_signal.fftconvolve(stream, template[::-1], mode="full")
    # fftconvolve's full output index (len(template)-1) aligns the template
    # start with stream sample 0.  The full output has
    # ``len(stream) + len(template) - 1`` entries, so this slice is
    # always complete — no tail padding is ever needed.
    start = template.size - 1
    return corr[start : start + stream.size]


def normalized_cross_correlation(stream: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Cross-correlation normalised by local stream energy.

    The value at index ``i`` approximates the cosine similarity between
    the template and the stream window starting at ``i``, so it is
    comparable across SNRs. Values are clipped to ``[-1, 1]``.
    """
    from scipy import signal as sp_signal

    stream = np.asarray(stream, dtype=float)
    template = np.asarray(template, dtype=float)
    corr = cross_correlate(stream, template)
    template_norm = float(np.linalg.norm(template))
    if template_norm == 0:
        raise ValueError("template has zero energy")
    window = np.ones(template.size)
    # Same alignment as cross_correlate; the full-mode output is always
    # long enough for a complete slice.
    local_energy = sp_signal.fftconvolve(stream**2, window, mode="full")
    local_energy = local_energy[template.size - 1 : template.size - 1 + stream.size]
    local_norm = np.sqrt(np.maximum(local_energy, 0.0))
    denom = template_norm * np.maximum(local_norm, 1e-12)
    return np.clip(corr / denom, -1.0, 1.0)
