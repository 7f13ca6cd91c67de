"""Cache-key contract: canonical JSON, unit addressing, code salt.

The serving tier's correctness rests on one invariant: structurally
equal requests produce byte-equal canonical encodings, and therefore
the same sha256 content address — no matter the dict insertion order,
numpy scalar types, tuple-vs-list spelling or integral-float spelling
the caller used.  These tests pin that invariant plus the satellite
guarantees on the artifact serializers themselves (``jsonify`` /
``campaign_to_json`` / ``_key_str``).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import engine
from repro.experiments.engine import ExperimentResult, _key_str, jsonify
from repro.service import cachekey
from repro.service.cachekey import (
    UnitRequest,
    cache_key,
    canonical_json,
    code_version,
    normalize_request,
)


# ---------------------------------------------------------------------------
# canonical_json
# ---------------------------------------------------------------------------


def test_canonical_json_ignores_insertion_order():
    a = {"x": 1, "y": {"b": 2, "a": 3}}
    b = {"y": {"a": 3, "b": 2}, "x": 1}
    assert canonical_json(a) == canonical_json(b)


def test_canonical_json_normalizes_floats():
    assert canonical_json(1.0) == canonical_json(1)
    assert canonical_json(-0.0) == canonical_json(0)
    assert canonical_json(0.5) == "0.5"
    # Non-integral floats keep full round-trip precision.
    assert json.loads(canonical_json(0.1)) == 0.1


def test_canonical_json_numpy_and_tuples():
    assert canonical_json((1, 2)) == canonical_json([1, 2])
    assert canonical_json(np.int64(7)) == canonical_json(7)
    assert canonical_json(np.float64(2.0)) == canonical_json(2)
    assert canonical_json({"a": np.arange(3)}) == canonical_json({"a": [0, 1, 2]})


def test_canonical_json_rejects_nan_via_jsonify():
    # jsonify maps non-finite floats to None, so canonical encoding
    # never emits bare NaN/Infinity tokens.
    assert canonical_json(float("nan")) == "null"
    assert canonical_json(float("inf")) == "null"


# ---------------------------------------------------------------------------
# jsonify / campaign_to_json determinism (satellite regression tests)
# ---------------------------------------------------------------------------


def test_jsonify_sets_are_sorted():
    assert jsonify({"k": {"cherry", "apple", "banana"}}) == {
        "k": ["apple", "banana", "cherry"]
    }
    assert jsonify(frozenset([3, 1, 2])) == [1, 2, 3]


def test_key_str_round_trips():
    assert _key_str(np.int64(3)) == "3"
    assert _key_str(2.0) == "2"
    assert _key_str(np.float64(4.0)) == "4"
    assert _key_str(2.5) == "2.5"
    assert _key_str(("a", 1)) == "a-1"
    assert _key_str("plain") == "plain"


def _result(measured):
    return ExperimentResult(
        experiment="fig22",
        variant="default",
        title="t",
        paper_ref="Fig. 22",
        params={},
        base_seed=2023,
        spawn_key=(10,),
        status="ok",
        measured=measured,
        paper={},
        report="",
        wall_time_s=1.0,
    )


def test_campaign_to_json_independent_of_dict_order():
    fwd = _result({"alpha": 1, "beta": {"x": 1.0, "y": 2}})
    rev = _result({"beta": {"y": 2, "x": 1.0}, "alpha": 1})
    assert engine.campaign_to_json([fwd]) == engine.campaign_to_json([rev])


def test_result_to_dict_round_trips_through_result_from_dict():
    result = _result({10: 0.5, 2.0: [1, 2]})
    rebuilt = engine.result_from_dict(result.to_dict())
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.spawn_key == (10,)


# ---------------------------------------------------------------------------
# request normalization
# ---------------------------------------------------------------------------


def test_normalize_request_defaults_and_key_stability():
    minimal = normalize_request({"experiment": "fig22"})
    explicit = normalize_request(
        {
            "experiment": "fig22",
            "variant": "default",
            "params": {},
            "base_seed": engine.DEFAULT_BASE_SEED,
            "scale": 1,
            "backend": None,
            "trial_chunks": 1,
        }
    )
    assert cache_key(minimal) == cache_key(explicit)


def test_normalize_request_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown experiment"):
        normalize_request({"experiment": "nope"})
    with pytest.raises(ValueError, match="unknown request field"):
        normalize_request({"experiment": "fig22", "bogus": 1})
    with pytest.raises(ValueError, match="required"):
        normalize_request({})
    with pytest.raises(ValueError, match="backend"):
        normalize_request({"experiment": "fig6", "backend": "fast"})
    with pytest.raises(ValueError, match="trial_chunks"):
        normalize_request({"experiment": "fig22", "trial_chunks": 0})
    with pytest.raises(ValueError, match="scale"):
        normalize_request({"experiment": "fig22", "scale": -1})
    with pytest.raises(ValueError, match="base_seed"):
        normalize_request({"experiment": "fig22", "base_seed": -1})
    with pytest.raises(ValueError):
        normalize_request({"experiment": "fig22", "scale": "fast"})


# ---------------------------------------------------------------------------
# cache_key
# ---------------------------------------------------------------------------


def test_cache_key_varies_with_every_provenance_field():
    base = UnitRequest(experiment="fig22")
    keys = {cache_key(base)}
    for variant in (
        UnitRequest(experiment="fig14"),
        UnitRequest(experiment="fig22", variant="other"),
        UnitRequest(experiment="fig22", params={"num_trials": 3}),
        UnitRequest(experiment="fig22", base_seed=7),
        UnitRequest(experiment="fig22", scale=0.5),
        UnitRequest(experiment="fig22", backend="fast"),
        UnitRequest(experiment="fig22", trial_chunks=4),
    ):
        keys.add(cache_key(variant))
    assert len(keys) == 8, "every provenance field must salt the key"


def test_cache_key_ignores_param_insertion_order():
    a = UnitRequest(experiment="fig22", params={"p": 1, "q": 2})
    b = UnitRequest(experiment="fig22", params={"q": 2, "p": 1})
    assert cache_key(a) == cache_key(b)


def test_cache_key_salted_by_code_version(monkeypatch):
    request = UnitRequest(experiment="fig22")
    before = cache_key(request)
    monkeypatch.setattr(cachekey, "_CODE_VERSION", "0" * 64)
    assert cache_key(request) != before


@pytest.mark.parametrize("module", ["numpy", "scipy"])
def test_cache_key_salted_by_numeric_library_version(monkeypatch, module):
    request = UnitRequest(experiment="fig22")
    before = cache_key(request)
    assert cache_key(request) == before
    lib = getattr(cachekey, module)
    monkeypatch.setattr(lib, "__version__", lib.__version__ + ".post999")
    assert cache_key(request) != before
    monkeypatch.undo()
    assert cache_key(request) == before


def test_code_version_is_stable_hex():
    assert code_version() == code_version()
    assert len(code_version()) == 64
    int(code_version(), 16)


def test_body_encoding_preserves_float_spellings():
    """Keys may collapse 5.0 -> 5; stored bodies must not.

    The body is what campaign artifacts are rebuilt from, so collapsing
    integral floats would flip field types between a cache-served run
    and a direct run (caught live on fig16's mean_pointing_deg).
    """
    from repro.service.compute import encode_body

    doc = {"deg": 5.0, "neg": -0.0, "n": 3}
    assert encode_body(doc) == b'{"deg":5.0,"n":3,"neg":-0.0}'
    assert canonical_json(doc) == '{"deg":5,"n":3,"neg":0}'


# ---------------------------------------------------------------------------
# normalize_request under arbitrary JSON
# ---------------------------------------------------------------------------

# Anything json.loads can return (it accepts NaN and Infinity too).
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# Plausible values per field, so fuzzing gets past the first check.
_field_values = {
    "experiment": st.sampled_from(sorted(engine.registry())) | _json_values,
    "variant": st.sampled_from(["default", "", "dock"]) | _json_values,
    "params": st.dictionaries(st.text(max_size=6), _json_values, max_size=3) | _json_values,
    "backend": st.sampled_from(sorted(engine.WAVEFORM_BACKENDS)) | _json_values,
    "precision": st.sampled_from(sorted(engine.PRECISIONS)) | _json_values,
    "base_seed": st.integers() | st.floats() | st.sampled_from(["7", "1e400", "nan"]),
    "scale": st.floats() | st.integers() | st.sampled_from(["0.1", "inf", "-1"]),
    "trial_chunks": st.integers() | st.floats() | st.sampled_from(["2", "x"]),
    "bogus": _json_values,
}
_request_bodies = _json_values | st.fixed_dictionaries(
    {},
    optional={
        name: values if name == "bogus" else values | _json_values
        for name, values in _field_values.items()
    },
)


@settings(max_examples=400, deadline=None)
@given(body=_request_bodies)
def test_normalize_request_is_a_valid_request_or_a_value_error(body):
    # The server turns ValueError into a 400; anything else would be a 500.
    try:
        request = normalize_request(body)
    except ValueError:
        return
    key = cache_key(request)
    assert normalize_request(request.to_dict()) == request
    assert cache_key(normalize_request(json.loads(json.dumps(request.to_dict())))) == key
