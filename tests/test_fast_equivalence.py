"""Statistical-equivalence contract of the fast waveform backend.

``backend="fast"`` is the first engine allowed to diverge from the
legacy reference in bits, so its gate is statistical instead of
bit-wise: on every seed, each figure's measured metrics must land
within the pre-registered tolerances of
``repro.experiments.fast_contract`` relative to the ``batch`` reference
(which stays bit-identical to legacy — tests/test_batch_parity.py).
The float32 tier (``backend="fast", precision="float32"``) is gated
against the same float64 batch reference through the ``"float32"``
tolerance table.

Also pins the fast backend's own reproducibility guarantees: identical
artifacts for identical seeds regardless of worker count, and the
dedicated noise substream never perturbing the main stream's geometry
draws — at both precisions.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.channel.environment import DOCK
from repro.experiments import engine
from repro.experiments.fast_contract import (
    FAST_FIGURES,
    TOLERANCES,
    compare_measured,
)
from repro.signals.preamble import make_preamble
from repro.simulate.batch_exchange import BatchOneWay
from repro.simulate.waveform_sim import ExchangeConfig

#: Trial scale per figure: small enough to keep the suite quick, large
#: enough that the registered tolerances clear seed-level noise.
SCALES = {
    "fig11": 0.25,
    "fig12": 0.5,
    "fig13": 0.3,
    "fig14": 0.25,
    "fig15": 0.2,
    "fig22": 1.0,
}

SEEDS = (101, 202, 303)


def _measured(name: str, backend: str, seed: int, precision: str = "float64"):
    result = engine.run_unit(
        name, base_seed=seed, scale=SCALES[name], backend=backend, precision=precision
    )
    assert result.status == "ok", result.error
    return result.measured


@lru_cache(maxsize=None)
def _batch_reference(name: str, seed: int):
    """The float64 batch reference, shared across both precision gates."""
    return _measured(name, "batch", seed)


@pytest.mark.parametrize("name", sorted(FAST_FIGURES))
def test_fast_within_registered_tolerances(name):
    """Fast metrics match the batch reference on every seed."""
    for seed in SEEDS:
        reference = _batch_reference(name, seed)
        candidate = _measured(name, "fast", seed)
        violations = compare_measured(name, reference, candidate)
        assert not violations, f"seed {seed}: " + "; ".join(violations)


@pytest.mark.parametrize("name", sorted(FAST_FIGURES))
def test_fast_float32_within_registered_tolerances(name):
    """Float32 fast metrics hold the float32 contract on every seed."""
    for seed in SEEDS:
        reference = _batch_reference(name, seed)
        candidate = _measured(name, "fast", seed, precision="float32")
        violations = compare_measured(
            name, reference, candidate, precision="float32"
        )
        assert not violations, f"seed {seed}: " + "; ".join(violations)


def test_contract_covers_all_fast_figures():
    """Every experiment declaring the fast backend has tolerances in
    every precision table, and the tables gate the same figures."""
    for table in TOLERANCES.values():
        assert tuple(table) == FAST_FIGURES
    for name, spec in engine.registry().items():
        if "fast" in spec.backends:
            assert name in FAST_FIGURES, f"{name} supports fast but has no contract"


def test_compare_measured_rejects_unknown_precision():
    with pytest.raises(KeyError, match="float16"):
        compare_measured("fig11", {}, {}, precision="float16")


def test_contract_detects_structure_and_value_breaks():
    def fig11_measured(median_by_distance):
        return {
            "median_by_distance": median_by_distance,
            "p95_by_distance": {},
            "mic_p95": {},
        }

    reference = fig11_measured({"10": 0.4, "20": 0.8})
    assert compare_measured("fig11", reference, fig11_measured({"10": 0.4}))
    violations = compare_measured(
        "fig11", reference, fig11_measured({"10": 0.4, "20": 9.8})
    )
    assert violations and "median_by_distance" in violations[0]
    nan_break = fig11_measured({"10": 0.4, "20": float("nan")})
    assert compare_measured("fig11", reference, nan_break)


@pytest.mark.parametrize("precision", ("float64", "float32"))
def test_fast_backend_deterministic_per_seed(precision):
    """Same seed, same fast-mode measurements — run to run."""
    a = _measured("fig14", "fast", 11, precision=precision)
    b = _measured("fig14", "fast", 11, precision=precision)
    assert a == b


@pytest.mark.parametrize("precision", ("float64", "float32"))
def test_fast_noise_substream_keeps_geometry_draws_on_main_stream(precision):
    """The fast renderer draws noise off-stream: after one add(), the
    main generator has consumed exactly the sound-speed normal and the
    fluctuation-seed integer (the legacy/batch geometry prefix)."""
    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    rng = np.random.default_rng(5)
    sim = BatchOneWay(preamble, backend="fast", precision=precision)
    sim.add([0.0, 0.0, 2.0], [15.0, 0.0, 2.0], config, rng)

    ref = np.random.default_rng(5)
    ref.spawn(1)  # the renderer's dedicated noise substream
    ref.normal(0.0, config.sound_speed_error_std)
    ref.integers(0, 2**32)
    assert rng.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("precision", (None, "float32"))
def test_fast_campaign_artifact_worker_independent(tmp_path, precision):
    """Chunked fast campaigns are byte-identical serial vs parallel."""
    docs = []
    for workers in (1, 2):
        results = engine.run_campaign(
            ["fig14"],
            base_seed=17,
            workers=workers,
            scale=0.08,
            trial_chunks=2,
            backend="fast",
            precision=precision,
        )
        docs.append(
            engine.campaign_to_json(
                results,
                base_seed=17,
                trial_chunks=2,
                backend="fast",
                precision=precision,
            )
        )
    assert docs[0] == docs[1]
