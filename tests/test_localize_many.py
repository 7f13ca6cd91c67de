"""The stacked localization driver against the per-trial loops.

:func:`~repro.localization.pipeline.localize_many` solves the base
SMACOF problems of many trials as one stack and restarts after each
suspected trial (DESIGN.md section 13). Its contract is the sequential
loop's, bit for bit: the same results, the same exception at the same
trial, and the shared generator left in the same state. These tests
pin it three ways: whole fig6, fig18-20 and tables unit bodies against
the per-trial oracles of ``tests/legacy_oracles.py``; a property test
of the driver on drawn trial streams, including disconnected ones; and
``NetworkSimulator.run_many`` and tables' flipping study with rounds
that packet loss disconnects.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legacy_oracles import flipping_accuracy_legacy, per_trial_localization, run_many_legacy
from repro.errors import LocalizationError
from repro.experiments import engine, tables
from repro.geometry.topology import pairwise_distance_matrix, random_scenario_positions
from repro.localization import outliers, pipeline
from repro.localization.pipeline import LocalizationInputs, localize, localize_many
from repro.service.compute import encode_body
from repro.simulate.network_sim import NetworkSimulator, RangingErrorModel, run_rounds
from repro.simulate.scenario import testbed_scenario as make_testbed_scenario

#: The module, not the function ``repro.localization`` re-exports.
smacof_module = importlib.import_module("repro.localization.smacof")

#: (experiment, variant, scale) units whose trials all go through the driver.
UNITS = (
    ("fig6", "default", 0.05),
    ("fig18", "dock", 0.25),
    ("fig18", "boathouse", 0.25),
    ("fig19", "default", 0.25),
    ("fig20", "device1", 0.25),
    ("fig20", "device2", 0.25),
    ("tables", "default", 0.1),
)


def _bodies(seed):
    return [
        encode_body(
            engine.unit_to_dict(
                engine.run_unit(name, variant, base_seed=seed, scale=scale), scale=scale
            )
        )
        for name, variant, scale in UNITS
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unit_bodies_match_per_trial_loops(seed):
    stacked = _bodies(seed)
    with per_trial_localization():
        sequential = _bodies(seed)
    for (name, variant, _), got, want in zip(UNITS, stacked, sequential):
        assert b'"status":"ok"' in want, (name, variant)
        assert got == want, (name, variant)


def test_per_trial_localization_fails_when_no_path_reaches_an_oracle():
    with pytest.raises(AssertionError, match="per-trial oracle"):
        with per_trial_localization():
            pass


# ---------------------------------------------------------------------------
# The driver on drawn trial streams
# ---------------------------------------------------------------------------


def _trial_drawer(rng, max_n, noise, bias, link_loss, threshold):
    """``draw(i)`` for a stream of small noisy networks.

    Each trial draws its size (3 to ``max_n`` nodes, so one stack can
    hold several sizes), positions, ranging noise, one biased link (so
    some trials are suspected) and link losses (so some are
    disconnected). The payload is the trial index; ``draw.calls`` lists
    the indices drawn.
    """

    def draw(index):
        n = int(rng.integers(3, max_n + 1))
        positions = random_scenario_positions(n, rng)
        d = pairwise_distance_matrix(positions)
        noisy = np.triu(d + rng.normal(0.0, noise, d.shape), 1)
        noisy[0, int(rng.integers(1, n))] += bias
        noisy = np.abs(noisy + noisy.T)
        lost = np.triu(rng.random((n, n)) < link_loss, 1)
        weights = np.where(lost | lost.T, 0.0, 1.0)
        np.fill_diagonal(weights, 0.0)
        inputs = LocalizationInputs(
            noisy,
            positions[:, 2],
            pointing_azimuth_rad=float(rng.uniform(-np.pi, np.pi)),
            arrival_signs={i: int(rng.choice([-1, 1])) for i in range(2, n)},
            weights=weights,
            stress_threshold=threshold,
        )
        draw.calls.append(index)
        return inputs, index

    draw.calls = []
    return draw


def _finish(index, result):
    return index, result


def _stacked(draw, count, rng, skip_failures):
    return localize_many(draw, _finish, count, rng, skip_failures=skip_failures)


def _sequential(draw, count, rng, skip_failures):
    results = []
    for i in range(count):
        try:
            inputs, payload = draw(i)
            results.append(_finish(payload, localize(**vars(inputs), rng=rng)))
        except LocalizationError:
            if not skip_failures:
                raise
    return results


def _run(runner, seed, count, skip_failures, **stream):
    """The results (or the exception's repr), the last trial drawn and
    the generator's final state."""
    rng = np.random.default_rng(seed)
    draw = _trial_drawer(rng, **stream)
    try:
        outcome = runner(draw, count, rng, skip_failures)
    except LocalizationError as exc:
        outcome = repr(exc)
    return outcome, draw.calls[-1] if draw.calls else None, rng.bit_generator.state


def _assert_same_results(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert [i for i, _ in got] == [i for i, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a.positions3d, b.positions3d)
        assert np.array_equal(a.positions2d, b.positions2d)
        assert a.normalized_stress == b.normalized_stress
        assert a.dropped_links == b.dropped_links
        assert a.outliers_suspected == b.outliers_suspected
        assert a.flip_votes == b.flip_votes


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 12),
    max_n=st.integers(3, 6),
    noise=st.sampled_from([0.0, 0.3, 1.0]),
    bias=st.sampled_from([0.0, 6.0]),
    link_loss=st.sampled_from([0.0, 0.2, 0.5]),
    threshold=st.sampled_from([0.0, np.inf, None]),
    skip_failures=st.booleans(),
)
def test_driver_matches_sequential_loop(
    seed, count, max_n, noise, bias, link_loss, threshold, skip_failures
):
    # threshold 0 suspects every trial (one restart per trial), inf
    # none, None is the default 0.5 m.
    stream = dict(max_n=max_n, noise=noise, bias=bias, link_loss=link_loss, threshold=threshold)
    got, got_last, got_state = _run(_stacked, seed, count, skip_failures, **stream)
    want, want_last, want_state = _run(_sequential, seed, count, skip_failures, **stream)
    _assert_same_results(got, want)
    # A raise comes from the same trial: the last one drawn.
    if isinstance(want, str):
        assert got_last == want_last
    assert got_state == want_state


def test_property_stream_covers_restarts_and_failures():
    """The drawn streams above do reach both special paths."""
    rng = np.random.default_rng(5)
    draw = _trial_drawer(rng, max_n=5, noise=0.3, bias=6.0, link_loss=0.5, threshold=0.0)
    results = localize_many(draw, _finish, 20, rng, skip_failures=True)
    assert 0 < len(results) < 20  # some trials were disconnected and skipped
    assert all(r.outliers_suspected for _, r in results)
    # Every suspected trial restarts the stack, so trials are redrawn.
    assert len(draw.calls) > 20


def test_each_problem_is_validated_once():
    """Staging validates each trial's problem; the base stacks built from
    staged trials are not validated again, while every Algorithm 1 level
    stack (a public ``smacof_batch`` call) is."""
    rng = np.random.default_rng(1)
    draw = _trial_drawer(rng, max_n=6, noise=0.3, bias=6.0, link_loss=0.0, threshold=None)
    validate = smacof_module._validate_inputs
    with (
        mock.patch.object(smacof_module, "_validate_inputs", wraps=validate) as checks,
        mock.patch.object(pipeline, "_stage", wraps=pipeline._stage) as stages,
        mock.patch.object(outliers, "smacof_batch", wraps=outliers.smacof_batch) as levels,
    ):
        results = localize_many(draw, _finish, 12, rng)
    assert len(results) == 12
    assert levels.call_count > 0  # some trials are suspected
    assert checks.call_count == stages.call_count + levels.call_count


# ---------------------------------------------------------------------------
# NetworkSimulator.run_many with disconnected rounds
# ---------------------------------------------------------------------------


def _lossy_simulator(seed, stress_threshold=None):
    """A 5-device dock network with an occluded link (so most rounds
    are suspected) and 30% packet loss (so some are disconnected)."""
    rng = np.random.default_rng(seed)
    scenario = make_testbed_scenario("dock", num_devices=5, rng=rng, occluded_links=[(0, 1)])
    return NetworkSimulator(
        scenario,
        error_model=RangingErrorModel(loss_prob=0.3),
        rng=rng,
        stress_threshold=stress_threshold,
    )


def _assert_same_rounds(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.errors_2d, b.errors_2d)
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.result.positions3d, b.result.positions3d)
        assert a.result.dropped_links == b.result.dropped_links
        assert a.flip_correct == b.flip_correct
        assert a.protocol.beacons == b.protocol.beacons


@pytest.mark.parametrize("stress_threshold", [0.0, None, np.inf])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_many_skips_disconnected_rounds_in_stream(seed, stress_threshold):
    got_sim = _lossy_simulator(seed, stress_threshold)
    want_sim = _lossy_simulator(seed, stress_threshold)
    got = got_sim.run_many(12)
    want = run_many_legacy(want_sim, 12)
    assert len(want) < 12  # a disconnected round was skipped
    _assert_same_rounds(got, want)
    assert got_sim.rng.bit_generator.state == want_sim.rng.bit_generator.state


@pytest.mark.parametrize("stress_threshold", [0.0, None, np.inf])
def test_run_many_raises_at_the_same_round(stress_threshold):
    messages = []
    for seed in (0, 1, 2):
        got_sim = _lossy_simulator(seed, stress_threshold)
        want_sim = _lossy_simulator(seed, stress_threshold)
        with pytest.raises(LocalizationError) as want:
            run_many_legacy(want_sim, 12, skip_failures=False)
        with pytest.raises(LocalizationError) as got:
            got_sim.run_many(12, skip_failures=False)
        assert str(got.value) == str(want.value)
        assert got_sim.rng.bit_generator.state == want_sim.rng.bit_generator.state
        messages.append(str(want.value))
    assert any("disconnected" in m for m in messages)


@pytest.mark.parametrize("seed", [1, 3])
def test_run_many_skips_rounds_whose_top_devices_sent_no_report(seed):
    """A round whose highest-numbered devices sent no report still has
    one matrix row per device: the silent devices are disconnected, a
    skippable ``LocalizationError``, not a ``ValueError`` on the depths."""

    def simulator():
        rng = np.random.default_rng(seed)
        scenario = make_testbed_scenario("dock", num_devices=4, rng=rng)
        return NetworkSimulator(
            scenario, error_model=RangingErrorModel(loss_prob=0.45), rng=rng
        )

    got_sim, want_sim = simulator(), simulator()
    got = got_sim.run_many(10)
    want = run_many_legacy(want_sim, 10)
    assert len(want) < 10
    _assert_same_rounds(got, want)
    assert got_sim.rng.bit_generator.state == want_sim.rng.bit_generator.state
    for rnd in got:
        assert rnd.distances.shape == (4, 4)


def test_flipping_study_attempt_cap_matches_per_round_loop():
    """Under packet loss, tables' chained driver calls re-run
    disconnected rounds as the per-attempt loop does, down to the
    ``3 * num_rounds`` attempt cap."""
    num_rounds = 6
    completed = []
    counts = []

    def counted(simulator, count, *args, **kwargs):
        counts.append(count)
        return run_rounds(simulator, count, *args, **kwargs)

    for loss_prob, seed in ((0.3, 0), (0.3, 1), (0.3, 2), (0.5, 1)):
        lossy = mock.patch(
            "repro.simulate.network_sim.RangingErrorModel",
            lambda loss_prob=loss_prob: RangingErrorModel(loss_prob=loss_prob),
        )
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        with lossy, mock.patch.object(tables, "run_rounds", counted):
            got = tables.run_flipping_accuracy(got_rng, num_rounds=num_rounds)
            want = flipping_accuracy_legacy(want_rng, num_rounds=num_rounds)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        completed += [r.num_rounds for r in want]
    # Some voter counts hit the cap short of num_rounds, others finish,
    # and some needed more than one driver call.
    assert min(completed) < num_rounds == max(completed)
    assert len(counts) > 2 * 4 and min(counts) < num_rounds
