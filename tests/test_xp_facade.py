"""The precision facade (repro.signals.xp).

Pins the three guarantees the kernels build on:

* the float64 context binds exactly the functions the kernels
  historically called (scipy.fft rfft/irfft/next_fast_len, np.fft
  fft/ifft) — routing through the facade must not move parity bits;
* the float32 context keeps single precision through every transform;
* the context depends on the precision alone: no environment variable
  can swap the array namespace under the kernels.
"""

import warnings

import numpy as np
import pytest
import scipy.fft as sp_fft

from repro.signals import xp


def test_precisions_reference_tier_first():
    assert xp.PRECISIONS == ("float64", "float32")
    assert xp.DEFAULT_PRECISION == "float64"


def test_unknown_precision_rejected():
    with pytest.raises(ValueError, match="unknown precision 'float16'"):
        xp.get_context("float16")


def test_contexts_cached_per_pair():
    assert xp.get_context("float64") is xp.get_context("float64")
    assert xp.get_context("float32") is xp.get_context("float32")
    assert xp.get_context("float64") is not xp.get_context("float32")


def test_float64_context_binds_historic_functions():
    ctx = xp.get_context("float64")
    assert ctx.name == "numpy"
    assert ctx.rfft is sp_fft.rfft
    assert ctx.irfft is sp_fft.irfft
    assert ctx.next_fast_len is sp_fft.next_fast_len
    assert ctx.fft is np.fft.fft
    assert ctx.ifft is np.fft.ifft
    assert ctx.real_dtype == np.float64
    assert ctx.complex_dtype == np.complex128


def test_float32_context_preserves_single_precision():
    ctx = xp.get_context("float32")
    x = np.ones(16, dtype=np.float32)
    spec = ctx.rfft(x, 16)
    assert spec.dtype == np.complex64
    assert ctx.irfft(spec, 16).dtype == np.float32
    assert ctx.fft(x)[0].dtype == np.complex64
    assert ctx.real_dtype == np.float32
    assert ctx.complex_dtype == np.complex64


def test_precision_of():
    assert xp.precision_of(np.float32) == "float32"
    assert xp.precision_of(np.complex64) == "float32"
    assert xp.precision_of(np.float64) == "float64"
    assert xp.precision_of(np.complex128) == "float64"
    assert xp.precision_of(np.int64) == "float64"


def test_as_float_array_preserves_working_dtypes():
    single = np.ones(4, dtype=np.float32)
    double = np.ones(4, dtype=np.float64)
    assert xp.as_float_array(single) is single
    assert xp.as_float_array(double) is double
    assert xp.as_float_array([1, 2]).dtype == np.float64
    assert xp.as_float_array(np.ones(4, dtype=np.int32)).dtype == np.float64


def test_as_complex_array_pairs_real_and_complex_widths():
    c64 = np.ones(4, dtype=np.complex64)
    assert xp.as_complex_array(c64) is c64
    assert xp.as_complex_array(np.ones(4, dtype=np.float32)).dtype == np.complex64
    assert xp.as_complex_array(np.ones(4)).dtype == np.complex128
    assert xp.as_complex_array([1, 2]).dtype == np.complex128


def _assert_numpy_contexts_silently(reference):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for precision, ctx in reference.items():
            assert xp.get_context(precision) is ctx
            assert ctx.name == "numpy"


def test_resolve_namespace_defaults_to_numpy(monkeypatch):
    monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
    assert not hasattr(xp, "resolve_namespace")
    for precision in xp.PRECISIONS:
        assert xp.get_context(precision).name == "numpy"


def test_env_knob_unknown_backend_warns_once(monkeypatch):
    # The knob is no longer read, so an unknown value warns zero times.
    reference = {p: xp.get_context(p) for p in xp.PRECISIONS}
    for value in ("", "mlx", "definitely-not"):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", value)
        _assert_numpy_contexts_silently(reference)


def test_env_knob_uninstalled_backend_falls_back(monkeypatch):
    reference = {p: xp.get_context(p) for p in xp.PRECISIONS}
    for value in ("numpy", "cupy", "torch", "  CUPY  "):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", value)
        _assert_numpy_contexts_silently(reference)


def test_explicit_namespace_argument_wins_over_env(monkeypatch):
    # get_context takes the precision alone; no namespace can be chosen.
    monkeypatch.setenv("REPRO_ARRAY_BACKEND", "definitely-not-a-backend")
    with pytest.raises(TypeError):
        xp.get_context("float32", namespace="numpy")
    _assert_numpy_contexts_silently({"float32": xp.get_context("float32")})
