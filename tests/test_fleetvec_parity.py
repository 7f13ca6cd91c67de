"""vec-engine parity with the per-event fleet round oracle (DESIGN.md §10).

Every fleet round runs on the vectorized engine
(:mod:`repro.simulate.des.fleetvec`); the per-event round it was
derived from is kept as a test oracle in ``tests/legacy_oracles.py``.
At fleet-summary granularity the two may diverge on nothing. These
tests pin that contract byte-for-byte on the existing 50/100/200
scenarios, on a 1000-node churn + mobility campaign, through the
campaign entry, and — via hypothesis — on
randomized small fleets with churn and mobility, where the per-round
reception mappings (values *and* iteration order) must match exactly,
and every vec report's read-only view must answer the mapping protocol
as the oracle's dict does. The
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
from repro.simulate.des.fleetvec import ReceptionView, run_fleet_round_vec
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

    @pytest.mark.slow
    def test_fleet1k_churn_mobility_byte_identical(self):
        """The 1000-node scale: two churn + mobility rounds, the oracle
        and vec summaries byte-identical (~18 s on the oracle)."""
        oracle, vec = _oracle_and_vec(
            2023,
            num_devices=1000,
            num_rounds=2,
            leave_prob=0.05,
            join_prob=0.5,
            mobility_fraction=0.15,
        )
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
        mappings (sender order included), same timestamps to the last bit,
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

    @settings(max_examples=15, deadline=None)
    @given(
        num_devices=st.integers(min_value=2, max_value=20),
        mac=st.sampled_from(["tdma", "contention"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_reception_views_behave_like_the_oracle_dicts(
        self, num_devices, mac, seed
    ):
        """Property: every vec report's reception view is a read-only
        mapping equal to the oracle's dict, iterating senders in
        ascending order, with dict-like ``len``, ``in``, ``get`` and
        ``KeyError``."""
        config = FleetConfig(num_devices=num_devices, num_rounds=1, mac=mac)
        _, reports_e, _, _ = _one_round(event_fleet_round, seed, config)
        _, reports_v, _, _ = _one_round(run_fleet_round_vec, seed, config)
        absent = num_devices  # no such device id
        for device_id, report_e in reports_e.items():
            expected = report_e.receptions
            view = reports_v[device_id].receptions
            assert isinstance(view, ReceptionView)
            assert dict(view) == expected
            assert view == expected
            assert list(view) == sorted(expected)
            assert len(view) == len(expected)
            for sender in range(num_devices + 1):
                assert (sender in view) == (sender in expected)
                assert view.get(sender) == expected.get(sender)
            assert all(type(view[sender]) is float for sender in view)
            assert "0" not in view
            assert view.get(absent, "absent") == "absent"
            with pytest.raises(KeyError):
                view[absent]
            with pytest.raises(TypeError):
                view[absent] = 0.0


class TestReceptionView:
    def test_views_partition_one_table(self):
        """Views over adjacent row ranges see only their own rows; an
        empty range is an empty mapping."""
        senders = np.array([1, 4, 7, 0, 2], dtype=np.int64)
        local = np.array([0.5, 0.25, 0.75, 1.5, 2.5])
        first = ReceptionView(senders, local, 0, 3)
        second = ReceptionView(senders, local, 3, 5)
        empty = ReceptionView(senders, local, 5, 5)
        assert dict(first.items()) == {1: 0.5, 4: 0.25, 7: 0.75}
        assert dict(second.items()) == {0: 1.5, 2: 2.5}
        assert 3 not in first and 7 not in second and 1 not in second
        assert second[2] == 2.5
        assert len(empty) == 0 and list(empty) == [] and empty == {}
        with pytest.raises(KeyError):
            empty[0]
