"""Invariant tests for the per-event simulator the round oracles share.

The oracles in ``tests/legacy_oracles.py`` are only as trustworthy as
the engine under them (``tests/des_oracle.py``, DESIGN.md §3), so its
ordering contract is pinned here property-style: random schedules drawn
from seeded generators must satisfy the ordering invariants on every
draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from des_oracle import AcousticMedium, DesNode, EnergyAccount, Simulator, TdmaMac
from repro.errors import ConfigurationError
from repro.simulate.des.energy import EnergyModel


class TestEventOrdering:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_events_fire_in_time_order(self, seed):
        rng = np.random.default_rng(seed)
        sim = Simulator()
        fired = []
        times = rng.uniform(0.0, 100.0, size=40)
        for t in times:
            sim.at(float(t), lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times.tolist())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), num_groups=st.integers(1, 5))
    def test_same_timestamp_pops_in_schedule_order(self, seed, num_groups):
        """Simultaneous events fire in the order they were scheduled."""
        rng = np.random.default_rng(seed)
        sim = Simulator()
        fired = []
        group_times = sorted(rng.uniform(0.0, 10.0, size=num_groups).tolist())
        expected = []
        # Interleave the groups' scheduling to stress the tie-breaker.
        order = rng.permutation(num_groups * 6)
        slots = [(group_times[k % num_groups], int(k)) for k in order]
        for t, tag in slots:
            sim.at(t, lambda tag=tag: fired.append(tag))
        for t in group_times:
            expected.extend(tag for tt, tag in slots if tt == t)
        sim.run()
        assert fired == expected

    def test_events_scheduled_mid_run_keep_order(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                # Same-time reschedule: fires after already-queued
                # events at this timestamp, in schedule order.
                sim.at(sim.now, chain, depth + 1)

        sim.at(1.0, chain, 0)
        sim.at(1.0, lambda: fired.append("queued"))
        sim.run()
        assert fired == [0, "queued", 1, 2, 3, 4, 5]

    def test_past_times_clamp_to_now(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: sim.at(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            sim.after(-1.0, lambda: None)

    def test_event_budget_guard(self):
        sim = Simulator()

        def forever():
            sim.after(1.0, forever)

        sim.after(1.0, forever)
        with pytest.raises(ConfigurationError):
            sim.run(max_events=50)


class TestTraceDeterminism:
    def _random_workload(self, seed):
        """A workload whose randomness all flows from one generator,
        including draws made inside event callbacks; returns the
        ``(time, tag)`` of every fired event."""
        rng = np.random.default_rng(seed)
        sim = Simulator()
        trace = []

        def burst(tag, remaining):
            trace.append((sim.now, tag))
            if remaining > 0:
                sim.after(float(rng.exponential(0.5)), burst, f"{tag}.", remaining - 1)

        for k in range(10):
            sim.at(float(rng.uniform(0, 5)), burst, f"seed{k}", int(rng.integers(1, 4)))
        sim.run()
        return trace

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_same_seed_identical_trace(self, seed):
        assert self._random_workload(seed) == self._random_workload(seed)

    def test_different_seeds_diverge(self):
        assert self._random_workload(1) != self._random_workload(2)


class _Probe:
    """Minimal MAC: records accepted arrivals, never transmits."""

    def __init__(self):
        self.accepted = []

    def start(self, node):
        pass

    def on_receive(self, node, arrival):
        self.accepted.append((node.device_id, arrival.sender_id))


def _make_node(device_id, sim, medium, mac, position=(0.0, 0.0, 1.0)):
    from repro.devices.device import Device

    return DesNode(
        Device(device_id=device_id, position=np.array(position)), sim, medium, mac
    )


class TestMediumAndCollisions:
    def _pair(self, mac, distance=1500.0, duration=0.0):
        sim = Simulator()
        medium = AcousticMedium(
            sim, 1500.0, distance_fn=lambda rx, tx, t: distance
        )
        a = _make_node(0, sim, medium, mac)
        b = _make_node(1, sim, medium, mac)
        return sim, medium, a, b

    def test_propagation_delay_applied(self):
        mac = _Probe()
        sim, medium, a, b = self._pair(mac, distance=1500.0)
        sim.at(0.0, a.transmit)
        sim.run()
        assert mac.accepted == [(1, 0)]
        assert b.received[0][0] == pytest.approx(1.0)  # 1500 m at 1500 m/s

    def test_connectivity_and_loss_gate_delivery(self):
        sim = Simulator()
        medium = AcousticMedium(
            sim,
            1500.0,
            distance_fn=lambda rx, tx, t: 10.0,
            connectivity_fn=lambda rx, tx, dist: rx != 2,
            loss_fn=lambda rx, tx: rx == 3,
        )
        mac = _Probe()
        nodes = [_make_node(i, sim, medium, mac) for i in range(4)]
        sim.at(0.0, nodes[0].transmit)
        sim.run()
        assert sorted(mac.accepted) == [(1, 0)]  # 2 out of range, 3 lost

    def test_overlapping_packets_collide(self):
        """Two packets overlapping at a receiver corrupt each other."""
        sim = Simulator()
        medium = AcousticMedium(sim, 1500.0, distance_fn=lambda rx, tx, t: 15.0)
        mac = _Probe()
        receiver = _make_node(0, sim, medium, mac)
        tx1 = _make_node(1, sim, medium, mac)
        tx2 = _make_node(2, sim, medium, mac)
        sim.at(0.0, tx1.transmit, 0.3)
        sim.at(0.1, tx2.transmit, 0.3)  # overlaps tx1's packet at 0
        sim.run()
        assert receiver.collisions >= 1
        assert not any(rx == 0 for rx, _ in mac.accepted)

    def test_half_duplex_node_deaf_while_transmitting(self):
        """A packet arriving during a node's own transmission is lost."""
        sim = Simulator()
        medium = AcousticMedium(sim, 1500.0, distance_fn=lambda rx, tx, t: 15.0)
        mac = _Probe()
        a = _make_node(0, sim, medium, mac)
        b = _make_node(1, sim, medium, mac)
        # b's packet arrives at a at t=0.01 while a transmits 0..0.3.
        sim.at(0.0, a.transmit, 0.3)
        sim.at(0.0, b.transmit, 0.3)
        sim.run()
        assert a.collisions == 1
        assert not any(rx == 0 for rx, _ in mac.accepted)
        # b is transmitting too, so it is equally deaf to a's packet.
        assert b.collisions == 1 and mac.accepted == []

    def test_non_overlapping_packets_both_accepted(self):
        sim = Simulator()
        medium = AcousticMedium(sim, 1500.0, distance_fn=lambda rx, tx, t: 15.0)
        mac = _Probe()
        receiver = _make_node(0, sim, medium, mac)
        tx1 = _make_node(1, sim, medium, mac)
        tx2 = _make_node(2, sim, medium, mac)
        sim.at(0.0, tx1.transmit, 0.3)
        sim.at(1.0, tx2.transmit, 0.3)
        sim.run()
        assert receiver.collisions == 0
        assert sorted(s for rx, s in mac.accepted if rx == 0) == [1, 2]


class TestEnergyAccounting:
    def test_tx_rx_idle_split(self):
        account = EnergyAccount(EnergyModel(tx_w=2.0, rx_w=1.0, idle_w=0.5))
        account.charge("tx", 2.0)
        account.charge("rx", 4.0)
        account.settle_idle(10.0)
        assert account.seconds["idle"] == pytest.approx(4.0)
        assert account.total_joules == pytest.approx(2 * 2.0 + 4 * 1.0 + 4 * 0.5)

    def test_unknown_state_rejected(self):
        account = EnergyAccount()
        with pytest.raises(ConfigurationError):
            account.charge("warp", 1.0)

    def test_from_device_model(self):
        from repro.devices.models import SAMSUNG_S9

        model = EnergyModel.from_device_model(SAMSUNG_S9)
        assert model.tx_w == SAMSUNG_S9.acoustic_power_w
        assert model.idle_w == SAMSUNG_S9.idle_power_w
        assert model.sleep_w < model.idle_w < model.rx_w


class TestMacValidation:
    def test_tdma_needs_two_devices(self):
        with pytest.raises(ConfigurationError):
            TdmaMac(1)
