"""Regenerate the parity-epoch baseline artifact (one-command reset).

The batch-vs-oracle waveform parity contract is *bit-identity*, so any
fix that legitimately changes bits — like the epoch-2 FIR right-sizing —
must reset what "the bits" are.  Instead of hand-edited constants, the
pinned quantities live in a committed, regenerable artifact keyed by a
**parity epoch**:

* ``tests/baselines/parity_epoch<N>.json`` holds stream digests, one-way
  measurement values, per-figure measured outputs and the merged
  measured outputs of trial-chunked runs (``chunked``), all produced by
  the **batch** backend (which ``tests/test_batch_parity.py`` separately
  proves bit-identical at runtime to the scalar API and to the frozen
  per-exchange figure paths of ``tests/legacy_oracles.py``);
* bumping the bits = bump :data:`PARITY_EPOCH`, run this script, commit
  the new artifact and delete the old epoch's file — one command instead
  of a constant hunt (the oracles move with it: a deliberate bit change
  in the batch path lands in ``tests/legacy_oracles.py`` too);
* CI regenerates the artifact into a temporary directory and diffs it
  against the committed file (``--check``), so silent bit drift in the
  batch backend fails the build with a "run the regen script" message.

The absolute digests pin the bits of the *pinned build platform*.  On a
different BLAS/CPU/library build the oracle-vs-batch runtime parity
still holds while absolute bits may differ; set
``REPRO_PARITY_PIN_SKIP=1`` to run the parity suite without the
absolute-baseline pins there (CI never sets it).

Usage::

    PYTHONPATH=src python tests/regen_parity_baselines.py            # rewrite
    PYTHONPATH=src python tests/regen_parity_baselines.py --check    # CI drift gate
    PYTHONPATH=src python tests/regen_parity_baselines.py --out DIR  # regen elsewhere

Epoch history:

* **epoch 1**: over-length FIRs (``wave.size + ceil(max_delay*fs) + 2``)
  in the parity backends.
* **epoch 2** (PR 5): FIRs right-sized to the tap span via the shared
  ``channel.render.fir_length_for`` contract in *all* backends; every
  channel convolution's transform shrinks, re-rounding the streams.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

#: Bump together with any intentional bit change in the parity backends,
#: then rerun this script (see module docstring).
PARITY_EPOCH = 2

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: Campaign entries with a waveform backend switch, with cheap params —
#: shared with tests/test_batch_parity.py so the pinned figures and the
#: runtime oracle-vs-batch comparison cover the same workloads.
BACKEND_EXPERIMENTS = {
    "fig11": dict(scale=1.0, num_exchanges=3, ablation_exchanges=2),
    "fig12": dict(scale=1.0, num_trials=3, num_exchanges=2),
    "fig13": dict(scale=1.0, num_exchanges=3, readings_per_depth=4),
    "fig14": dict(scale=1.0, num_exchanges=2),
    "fig15": dict(scale=0.1),
    "fig22": dict(scale=1.0, num_symbols=4),
}


#: The trial-chunkable figures and the chunk counts the ``chunked``
#: section pins: the merged measured outputs of ``--trial-chunks N``
#: runs at the :data:`BACKEND_EXPERIMENTS` params, so a change to how
#: chunk results recombine cannot move bits unnoticed.
CHUNKED_FIGURES = ("fig11", "fig12", "fig13", "fig14", "fig15")
CHUNK_COUNTS = (2, 3)


def baseline_path(epoch: int = PARITY_EPOCH, directory: Path | None = None) -> Path:
    return (directory or BASELINE_DIR) / f"parity_epoch{epoch}.json"


def stream_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def reception_scenarios():
    """The pinned reception scenarios (shared with the parity test)."""
    from repro.channel.environment import BOATHOUSE, DOCK
    from repro.channel.occlusion import Occlusion
    from repro.devices.models import GOOGLE_PIXEL, ONEPLUS
    from repro.simulate.waveform_sim import ExchangeConfig

    return {
        "dock": dict(
            config=ExchangeConfig(environment=DOCK),
            geometries=[([0, 0, 2.5], [d, 0, 2.4]) for d in (10.0, 20.0, 35.0, 45.0)],
            seed=11,
        ),
        "boathouse_occluded": dict(
            config=ExchangeConfig(
                environment=BOATHOUSE,
                tx_model=GOOGLE_PIXEL,
                rx_model=ONEPLUS,
                tx_azimuth_rad=0.7,
                tx_polar_rad=0.3,
                occlusion=Occlusion(direct_attenuation_db=40.0),
                amplitude=0.7,
            ),
            geometries=[
                ([0, 0, 1.0], [12.0, 1.0, 1.4]),
                ([0, 0, 1.2], [20.0, -2.0, 0.8]),
            ],
            seed=23,
        ),
    }


def reception_payload() -> dict:
    """Stream digests for the pinned reception scenarios (batch backend)."""
    from repro.signals.preamble import make_preamble
    from repro.simulate.batch_exchange import BatchExchangeRenderer

    preamble = make_preamble()
    payload = {}
    for name, scenario in reception_scenarios().items():
        rng = np.random.default_rng(scenario["seed"])
        renderer = BatchExchangeRenderer(preamble)
        for tx, rx in scenario["geometries"]:
            renderer.add(tx, rx, scenario["config"], rng)
        payload[name] = [
            {
                "mic1_sha256": stream_digest(rec.mic1),
                "mic2_sha256": stream_digest(rec.mic2),
                "mic1_len": int(rec.mic1.size),
                "guard": int(rec.guard),
                "true_arrival": rec.true_arrival,
            }
            for rec in renderer.render()
        ]
    return payload


def one_way_payload() -> list:
    """The pinned one-way measurement values (batch backend, DOCK)."""
    from repro.channel.environment import DOCK
    from repro.signals.preamble import make_preamble
    from repro.simulate.batch_exchange import BatchOneWay
    from repro.simulate.waveform_sim import ExchangeConfig

    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    rng = np.random.default_rng(2023)
    sim = BatchOneWay(preamble, chunk=5)
    for i in range(12):
        sim.add([0, 0, 2.5], [10 + 2.5 * i, 0, 2.5], config, rng)
    payload = []
    for m in sim.run():
        entry = {
            "true_distance_m": m.true_distance_m,
            "detected": m.detected,
            "estimated_distance_m": (
                None if np.isnan(m.estimated_distance_m) else m.estimated_distance_m
            ),
        }
        if m.arrival is not None:
            entry["arrival_index"] = m.arrival.arrival_index
            entry["start_index"] = int(m.arrival.detection.start_index)
            entry["arrival_sign"] = int(m.arrival.arrival_sign)
        payload.append(entry)
    return payload


def run_figure(name: str, trial_chunks: int = 1, backend: str = "batch"):
    """One figure's unit at its :data:`BACKEND_EXPERIMENTS` params.

    Runs in process on the figure's default-variant substream; raises
    unless the unit ran ``ok``.
    """
    from repro.experiments import engine

    params = dict(BACKEND_EXPERIMENTS[name])
    scale = params.pop("scale")
    result = engine.run_unit(
        name, params=params, scale=scale, backend=backend, trial_chunks=trial_chunks
    )
    if result.status != "ok":
        raise RuntimeError(f"{name} at {trial_chunks} chunk(s) failed:\n{result.error}")
    return result


def figure_payload(name: str, trial_chunks: int = 1, backend: str = "batch") -> dict:
    """One figure's (merged) measured outputs over ``trial_chunks`` chunks."""
    from repro.experiments import engine

    return engine.jsonify(run_figure(name, trial_chunks, backend).measured)


def chunked_payload() -> dict:
    """Merged measured outputs per chunkable figure and chunk count."""
    return {
        name: {str(k): figure_payload(name, k) for k in CHUNK_COUNTS}
        for name in CHUNKED_FIGURES
    }


def generate_baselines() -> dict:
    """The full epoch artifact (without provenance: comparable payload)."""
    return {
        "schema": "repro-parity-baseline/1",
        "epoch": PARITY_EPOCH,
        "receptions": reception_payload(),
        "one_way": one_way_payload(),
        "figures": {name: figure_payload(name) for name in sorted(BACKEND_EXPERIMENTS)},
        "chunked": chunked_payload(),
    }


def _with_provenance(doc: dict) -> dict:
    import scipy

    return {
        **doc,
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "regenerate": "PYTHONPATH=src python tests/regen_parity_baselines.py",
        },
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=f"output directory (default: {BASELINE_DIR})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate and diff against the committed artifact (CI drift gate)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="with --check: fail (instead of skip) on a numpy/scipy "
        "mismatch against the baseline's provenance — for environments "
        "pinned via ci-constraints.txt, where a mismatch means the "
        "constraints and the baseline drifted apart",
    )
    args = parser.parse_args(argv)

    if args.check:
        committed_path = baseline_path(
            directory=Path(args.out) if args.out else None
        )
        if not committed_path.exists():
            print(f"missing committed baseline: {committed_path}")
            return 1
        committed = json.loads(committed_path.read_text(encoding="utf-8"))
        provenance = committed.pop("provenance", {})
        current = _with_provenance({})["provenance"]
        mismatched = [
            f"{lib} {provenance.get(lib)} (baseline) vs {current[lib]} (here)"
            for lib in ("numpy", "scipy")
            if provenance.get(lib) not in (None, current[lib])
        ]
        if mismatched:
            # The absolute bits are pinned per library build; a version
            # bump legitimately re-rounds FFT/BLAS results, so a diff
            # against a differently-versioned baseline proves nothing
            # about repo code.  On an unpinned dev machine, report and
            # pass.  In CI the environment is pinned to the baseline's
            # versions via ci-constraints.txt and runs --strict, so a
            # mismatch there means constraints and baseline drifted
            # apart — fail and demand they be updated together.
            verdict = "FAILED" if args.strict else "SKIPPED"
            print(f"parity baseline drift check {verdict} (library mismatch):")
            for line in mismatched:
                print(f"  - {line}")
            print(
                "update ci-constraints.txt and regenerate the baseline "
                "together:\n"
                "    PYTHONPATH=src python tests/regen_parity_baselines.py"
            )
            return 1 if args.strict else 0
        doc = generate_baselines()
        if committed != doc:
            print(f"parity baselines drifted from {committed_path}:")
            for key in doc:
                if committed.get(key) != doc[key]:
                    print(f"  - section {key!r} differs")
            print(
                "the parity backends' bits no longer match the committed epoch "
                f"{PARITY_EPOCH} baseline.\nIf the change is intentional, bump "
                "PARITY_EPOCH as needed and run the regen script:\n"
                "    PYTHONPATH=src python tests/regen_parity_baselines.py"
            )
            return 1
        print(f"parity baselines OK (epoch {PARITY_EPOCH}, {committed_path})")
        return 0

    out_dir = Path(args.out) if args.out else BASELINE_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    path = baseline_path(directory=out_dir)
    path.write_text(_dump(_with_provenance(generate_baselines())), encoding="utf-8")
    print(f"wrote {path} (epoch {PARITY_EPOCH})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
