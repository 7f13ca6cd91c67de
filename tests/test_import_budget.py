"""The import budget (DESIGN.md §11): only waveform kernels load the
waveform stack.

``scipy.signal`` (about 1 s and 49 MB to import) and ``scipy.fft`` are
imported by the first call that needs them, so a process that only
localizes or runs fleets never loads either, and the fast waveform
backend never loads ``scipy.signal``.  Each check starts a fresh
interpreter, because the test process itself has long since imported
both.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The localization/fleet process: the service's imports, the registry,
#: one localization and one vec fleet unit; then one waveform unit.
LAZY = """
import sys

from repro.experiments import engine
from repro.service import cachekey, compute, store  # noqa: F401

engine.load_registry()
cachekey.code_version()
for result in (
    engine.run_unit("fig18", base_seed=7, scale=0.1),
    engine.run_unit(
        "fleet", "budget", {"num_devices": 40, "num_rounds": 1}, base_seed=7
    ),
):
    assert result.status == "ok", result.error
before = sorted(m for m in ("scipy.signal", "scipy.fft") if m in sys.modules)
"""

#: The reference process: the waveform stack is loaded before anything.
EAGER = """
import sys

import scipy.fft
import scipy.signal

from repro.experiments import engine

before = None
"""

WAVEFORM_UNIT = """
import json

from repro.service.compute import encode_body

result = engine.run_unit("fig22", base_seed=7, scale=0.05)
assert result.status == "ok", result.error
body = encode_body(engine.unit_to_dict(result, scale=0.05)).decode("ascii")
after = sorted(m for m in ("scipy.signal", "scipy.fft") if m in sys.modules)
print(json.dumps({"before": before, "after": after, "body": body}))
"""


def _run(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def lazy_run():
    return _run(LAZY + WAVEFORM_UNIT)


def test_localization_and_fleet_processes_load_no_waveform_stack(lazy_run):
    assert lazy_run["before"] == []


def test_waveform_unit_bytes_do_not_depend_on_when_scipy_loads(lazy_run):
    # The waveform unit did load the stack, on demand...
    assert lazy_run["after"] == ["scipy.fft", "scipy.signal"]
    # ...and its bytes equal those of a process that imported it first.
    assert lazy_run["body"] == _run(EAGER + WAVEFORM_UNIT)["body"]


def test_pool_workers_inherit_the_waveform_stack():
    """Workers fork after the pool preloads the stack, so no worker
    pays the import on its first waveform job."""
    report = _run(
        """
        import json
        import sys

        from repro.experiments import engine


        def probe(_payload):
            from repro.signals import xp

            return [m in sys.modules for m in ("scipy.signal", "scipy.fft")] + [
                sorted(xp._CONTEXTS)
            ]


        parent = [m in sys.modules for m in ("scipy.signal", "scipy.fft")]
        engine._execute = probe
        try:
            workers = engine._campaign_pool(2).map([0, 1])
        finally:
            engine.shutdown_pool()
        print(json.dumps({"parent": parent, "workers": workers}))
        """
    )
    assert report["parent"] == [False, False]
    assert report["workers"] == [[True, True, ["float64"]]] * 2


def test_fast_waveform_figures_load_no_scipy_signal():
    """The fast backend's filter design, response, chirp, window and
    fig22 noise filter are numpy; only the bit-parity backends load
    scipy.signal (here: batch fig22's sosfilt, which proves the probe)."""
    report = _run(
        """
        import json
        import sys

        from repro.experiments import engine

        engine.load_registry()
        figures = ("fig11", "fig12", "fig13", "fig14", "fig15", "fig22")
        for precision in ("float64", "float32"):
            for result in engine.run_campaign(
                figures, base_seed=7, workers=1, scale=0.05, backend="fast", precision=precision
            ):
                assert result.status == "ok", result.error
        fast = "scipy.signal" in sys.modules
        [result] = engine.run_campaign(
            ["fig22"], base_seed=7, workers=1, scale=0.05, backend="batch"
        )
        assert result.status == "ok", result.error
        print(json.dumps({"fast": fast, "batch": "scipy.signal" in sys.modules}))
        """
    )
    assert report == {"fast": False, "batch": True}
