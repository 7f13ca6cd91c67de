"""Zadoff-Chu (ZC) sequences.

ZC sequences are constant-amplitude zero-autocorrelation (CAZAC)
sequences: a ZC sequence is orthogonal to every non-trivial cyclic shift
of itself, which makes it an excellent probe for time synchronisation and
channel estimation. The paper fills the OFDM bins of its ranging preamble
with a phase-modulated ZC sequence (section 2.2.1).
"""

from __future__ import annotations

import math

import numpy as np


def zadoff_chu(length: int, root: int = 1, shift: int = 0) -> np.ndarray:
    """Generate a Zadoff-Chu sequence of the given ``length``.

    Parameters
    ----------
    length:
        Sequence length ``N_zc``. Odd lengths give the classic CAZAC
        property for any root coprime with the length; even lengths are
        also supported (LTE-style definition).
    root:
        Root index ``u``; must be in ``[1, length)`` and coprime with
        ``length`` for the zero-autocorrelation property to hold.
    shift:
        Optional cyclic shift applied to the output.

    Returns
    -------
    numpy.ndarray
        Complex array of unit-magnitude samples.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 1 <= root < max(length, 2):
        raise ValueError("root must satisfy 1 <= root < length")
    if math.gcd(root, length) != 1:
        raise ValueError("root must be coprime with length for CAZAC property")
    n = np.arange(length)
    if length % 2 == 0:
        phase = -1j * np.pi * root * n * n / length
    else:
        phase = -1j * np.pi * root * n * (n + 1) / length
    seq = np.exp(phase)
    if shift:
        seq = np.roll(seq, shift)
    return seq

