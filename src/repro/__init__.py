"""repro: reproduction of "Underwater 3D positioning on smart devices".

An anchor-free underwater acoustic 3D positioning system for smart
devices (SIGCOMM 2023), rebuilt as a pure-Python library with a
simulated acoustic substrate:

* :mod:`repro.physics` — sound speed, absorption, depth conversion,
* :mod:`repro.signals` — preambles, correlation and the batched
  receiver kernels,
* :mod:`repro.channel` — image-method multipath, noise, environments,
* :mod:`repro.devices` — clocks, audio buffers, sensors, models,
* :mod:`repro.ranging` — detection and dual-mic direct-path estimation,
* :mod:`repro.protocol` — the distributed timestamp protocol + uplink,
* :mod:`repro.localization` — SMACOF, rigidity, outliers, ambiguities,
* :mod:`repro.simulate` — waveform- and network-level simulators,
* :mod:`repro.experiments` — regeneration of every paper table/figure.

Quickstart::

    import numpy as np
    from repro.simulate import NetworkSimulator, testbed_scenario

    rng = np.random.default_rng(7)
    scenario = testbed_scenario("dock", num_devices=5, rng=rng)
    sim = NetworkSimulator(scenario, rng=rng)
    outcome = sim.run_round()
    print(outcome.result.positions3d)
"""

from repro.constants import SAMPLE_RATE
from repro.errors import (
    ConfigurationError,
    DecodingError,
    LocalizationError,
    ProtocolError,
    ReproError,
    SignalError,
)

__version__ = "1.0.0"

__all__ = [
    "SAMPLE_RATE",
    "ReproError",
    "ConfigurationError",
    "SignalError",
    "DecodingError",
    "ProtocolError",
    "LocalizationError",
    "__version__",
]
