"""Simulators tying devices, channel, protocol and localization together.

Two fidelities on one substrate (see DESIGN.md):

* :mod:`repro.simulate.waveform_sim` — renders real 44.1 kHz audio
  through the image-method channel and runs the full receiver pipeline;
  used by the ranging experiments.  Its per-exchange calls are the
  batched engine of :mod:`repro.simulate.batch_exchange` at K = 1.
* :mod:`repro.simulate.network_sim` — timestamp-level N-device rounds
  with a waveform-calibrated ranging-error model; used by the network
  localization experiments.

The timestamp-level round is one first-arrival event loop
(:mod:`repro.protocol.round`); :mod:`repro.simulate.des` runs the
large-fleet / churn / multi-hop campaigns beyond the paper's 5-device
testbeds.
"""

from repro.simulate.scenario import (
    Scenario,
    testbed_scenario,
    fleet_scenario,
    PointingModel,
)
from repro.simulate.des import (
    EnergyModel,
    FleetConfig,
    FleetResult,
    run_fleet_campaign,
)
from repro.simulate.waveform_sim import (
    ExchangeConfig,
    RangingMeasurement,
    one_way_range,
)
from repro.simulate.network_sim import (
    RangingErrorModel,
    NetworkSimulator,
    RoundResult,
)
from repro.simulate.mobility import LinearBackForthTrajectory

__all__ = [
    "Scenario",
    "testbed_scenario",
    "fleet_scenario",
    "PointingModel",
    "EnergyModel",
    "FleetConfig",
    "FleetResult",
    "run_fleet_campaign",
    "ExchangeConfig",
    "RangingMeasurement",
    "one_way_range",
    "RangingErrorModel",
    "NetworkSimulator",
    "RoundResult",
    "LinearBackForthTrajectory",
]
