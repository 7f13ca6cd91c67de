"""vec-engine parity with the per-event fleet round oracle (DESIGN.md §10).

Every fleet round runs on the vectorized engine
(:mod:`repro.simulate.des.fleetvec`); the per-event round it was
derived from is kept as a test oracle in ``tests/legacy_oracles.py``.
At fleet-summary granularity the two may diverge on nothing. These
tests pin that contract byte-for-byte on the existing 50/100/200
scenarios, through the campaign entry, and — via hypothesis — on
randomized small fleets with churn and mobility, where the per-round
report dicts (values *and* iteration order) must match exactly. The
oracle side runs inside :func:`legacy_oracles.event_fleet`, which fails
if no round reached the oracle.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_oracles import ContentionMac, event_fleet, event_fleet_round
from repro.errors import ConfigurationError
from repro.experiments.engine import experiment_rng, get_spec, run_unit
from repro.simulate.des.fleet import (
    FleetConfig,
    _build_trajectories,
    run_fleet_campaign,
)
from repro.simulate.des.fleetvec import run_fleet_round_vec
from repro.simulate.scenario import fleet_scenario


def _summary(seed: int, **kw):
    config = FleetConfig(**kw)
    return run_fleet_campaign(np.random.default_rng(seed), config).summary()


def _dumps(summary) -> str:
    return json.dumps(summary, sort_keys=True)


def _oracle_and_vec(seed: int, **kw):
    """The campaign summary on the oracle round, then on vec, as JSON."""
    with event_fleet():
        oracle = _dumps(_summary(seed, **kw))
    return oracle, _dumps(_summary(seed, **kw))


class TestVecOracleParity:
    @pytest.mark.parametrize("num_devices", [50, 100, 200])
    def test_fleet_scenarios_byte_identical(self, num_devices):
        """Acceptance pin: fleet50/100/200 summaries are byte-identical
        between the oracle and vec on a fixed seed."""
        oracle, vec = _oracle_and_vec(2023, num_devices=num_devices, num_rounds=2)
        assert oracle == vec

    @pytest.mark.parametrize(
        "kw",
        [
            dict(
                num_devices=40,
                num_rounds=3,
                leave_prob=0.1,
                join_prob=0.5,
                mobility_fraction=0.2,
            ),
            dict(num_devices=30, num_rounds=2, mac="contention"),
            dict(
                num_devices=40,
                num_rounds=4,
                resync_interval_rounds=2,
                drift_wander_ppm=2.0,
            ),
            dict(
                num_devices=30,
                num_rounds=4,
                mac="contention",
                duty_cycle=0.01,
                leave_prob=0.05,
            ),
        ],
        ids=["churn_mobility", "contention", "drift", "duty_contention"],
    )
    def test_feature_axes_byte_identical(self, kw):
        """Churn, mobility, contention, drift and duty cycling all ride
        the same parity contract."""
        oracle, vec = _oracle_and_vec(4242, **kw)
        assert oracle == vec

    def test_campaign_entry_byte_identical(self):
        """The registry entry point on the oracle and on vec, same
        seeded substream: identical measured dicts and reports."""
        entry = get_spec("fleet").resolve_entry()
        kw = dict(scale=0.5, num_devices=100)
        with event_fleet():
            out_oracle = entry(experiment_rng("fleet", "fleet100"), **kw)
        out_vec = entry(experiment_rng("fleet", "fleet100"), **kw)
        assert _dumps(out_oracle.measured) == _dumps(out_vec.measured)
        assert out_oracle.report == out_vec.report


class TestFleetOracle:
    def test_guard_fails_when_no_round_reaches_the_oracle(self):
        """A block that runs no fleet round cannot pass as parity."""
        with pytest.raises(AssertionError, match="per-event oracle"):
            with event_fleet():
                pass

    def test_contention_mac_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            ContentionMac(rng, window_s=0.0)
        with pytest.raises(ConfigurationError):
            ContentionMac(rng, max_attempts=0)


class TestFleetBackendKeyword:
    def test_vec_is_the_only_accepted_value(self):
        """``fleet_backend="vec"`` runs the same bytes as no keyword."""
        base = run_unit("fleet", "fleet50", base_seed=2023, scale=0.25)
        named = run_unit(
            "fleet", "fleet50", {"fleet_backend": "vec"}, base_seed=2023, scale=0.25
        )
        assert base.status == named.status == "ok"
        assert _dumps(base.measured) == _dumps(named.measured)

    @pytest.mark.parametrize("backend", ["event", "VEC", ""])
    def test_any_other_value_fails_the_unit_naming_vec(self, backend):
        result = run_unit(
            "fleet", "fleet50", {"fleet_backend": backend}, base_seed=2023, scale=0.25
        )
        assert result.status == "error"
        assert "ConfigurationError" in result.error
        assert "'vec'" in result.error


def _one_round(round_fn, seed: int, config: FleetConfig):
    """One identically-seeded fleet round on ``round_fn``."""
    rng = np.random.default_rng(seed)
    scenario = fleet_scenario(
        config.num_devices,
        rng=rng,
        area_xy_m=config.area,
        max_range_m=config.max_range_m,
    )
    trajectories = _build_trajectories(scenario, config, rng)
    active = list(range(config.num_devices))
    return round_fn(scenario, active, trajectories, 0.0, config, rng)


class TestVecDeliveryOrderProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        num_devices=st.integers(min_value=2, max_value=20),
        mac=st.sampled_from(["tdma", "contention"]),
        mobility_fraction=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_reports_match_exactly(
        self, num_devices, mac, mobility_fraction, seed
    ):
        """Property: for random small fleets the vec engine produces the
        oracle's reports exactly — same devices, same reception
        dicts (sender order included), same timestamps to the last bit,
        same transmit times. Any delivery-order divergence would shift
        an RNG draw or a reception and break one of these."""
        config = FleetConfig(
            num_devices=num_devices,
            num_rounds=1,
            mac=mac,
            mobility_fraction=mobility_fraction,
        )
        stats_e, reports_e, elapsed_e, tx_e = _one_round(
            event_fleet_round, seed, config
        )
        stats_v, reports_v, elapsed_v, tx_v = _one_round(
            run_fleet_round_vec, seed, config
        )

        assert list(reports_e) == list(reports_v)
        for device_id, report_e in reports_e.items():
            report_v = reports_v[device_id]
            assert report_e.own_tx_local_s == report_v.own_tx_local_s
            assert list(report_e.receptions.items()) == list(
                report_v.receptions.items()
            )
        assert tx_e == tx_v
        assert elapsed_e == elapsed_v
        assert stats_e == stats_v

    @settings(max_examples=10, deadline=None)
    @given(
        num_devices=st.integers(min_value=3, max_value=20),
        leave_prob=st.floats(min_value=0.0, max_value=0.5),
        mobility_fraction=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_churned_campaign_summaries_match(
        self, num_devices, leave_prob, mobility_fraction, seed
    ):
        """Property: multi-round campaigns with random churn/mobility
        stay byte-identical between the engines (the churn draws themselves
        come from the shared stream, so any divergence cascades)."""
        kw = dict(
            num_devices=num_devices,
            num_rounds=3,
            leave_prob=leave_prob,
            join_prob=0.5,
            mobility_fraction=mobility_fraction,
        )
        oracle, vec = _oracle_and_vec(seed, **kw)
        assert oracle == vec
