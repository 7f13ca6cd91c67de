"""Output checks: each workload against the repo's own contracts.

Every check takes the program's outputs for whatever seed the run used
and returns a list of violations (empty = correct).  None compares the
fast path against itself:

* ranging -- ``fast_contract`` float64 tolerances against a
  ``backend="batch"`` reference campaign on the same seed;
* localization -- the paper-shape assertions of
  ``benchmarks/bench_fig06``/``bench_fig18-20``, widened to what holds
  at the workload's scale for every seed, plus byte identity with the
  digests committed for its corpus (every localization run replays the
  pass seeds of ``--seed 1``);
* fleet -- summary invariants plus the committed digests of the default
  run (a spatial index must leave the bytes unchanged);
* service -- every response is 200 and every body served for one key
  is byte-equal to the first.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

#: Committed digests of one pass's outputs, by workload and pass seed
#: (the ``base_seed`` of each pass of ``--seed 1``; for localization,
#: the corpus every run replays).
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def digest(bodies: Sequence[bytes]) -> str:
    """sha256 over a pass's canonical unit bodies, in campaign order."""
    h = hashlib.sha256()
    for body in bodies:
        h.update(len(body).to_bytes(8, "big"))
        h.update(body)
    return h.hexdigest()


def check_digest(workload: str, seed: int, bodies: Sequence[bytes]) -> List[str]:
    """Byte identity with the digest committed for pass seed ``seed``, if any."""
    expected = load_reference().get(workload, {}).get(str(seed))
    if expected is None:
        return []
    got = digest(bodies)
    if got != expected:
        return [f"{workload}: output digest {got[:16]} != committed {expected[:16]} for seed {seed}"]
    return []


def check_ranging(
    reference: Mapping[str, Mapping[str, Any]],
    candidate: Mapping[str, Mapping[str, Any]],
) -> List[str]:
    """Fast float64 outputs within ``fast_contract`` of the batch reference.

    Both arguments map a figure name to its campaign ``measured`` dict.
    """
    from repro.experiments.fast_contract import FAST_FIGURES, compare_measured

    violations: List[str] = []
    for figure in FAST_FIGURES:
        if figure not in reference or figure not in candidate:
            violations.append(f"ranging: {figure} missing from the campaign")
            continue
        violations.extend(
            compare_measured(figure, reference[figure], candidate[figure], "float64")
        )
    return violations


def _by_number(mapping: Mapping[str, float]) -> List[float]:
    """Values of a sweep dict keyed by stringified numbers, in key order."""
    return [v for _, v in sorted(mapping.items(), key=lambda kv: float(kv[0]))]


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _quantiles_ok(stats: Mapping[str, Any]) -> bool:
    median, p95 = stats.get("median"), stats.get("p95")
    return _finite(median) and _finite(p95) and 0 <= median <= p95 <= MAX_ERROR_M


#: Sanity ceiling on any localization error quantile: four times the
#: 25 m deployment span (mirror-flipped layouts reach ~36 m at p95).
MAX_ERROR_M = 100.0


def check_localization(measured: Mapping[str, Mapping[str, Any]], paper_fig18) -> List[str]:
    """Paper-shape checks on the fig6/18/19/20 units of one pass.

    ``measured`` maps unit labels (``fig18/dock``) to the JSON form of
    their measured dicts.  The bench files' thresholds are set for
    their 6-8 layouts; at the workload's scale (2 layouts) several of
    them fail for ordinary seeds (fig19's link-drop p95 in 8 of 30
    seeds, fig18's dock p95 and fig20's mover median in one each), so
    those claims are checked as valid ranges, and the two fig18
    medians within twice the bench's distance of the paper.  (fig20's
    mover median, for example, reached 5.9 m against its static 2.5 m
    for pass seed 515667522.)  The committed digests pin the exact
    values for the default run.
    """
    v: List[str] = []
    fig6 = measured.get("fig6", {})
    for key in ("fig6a", "fig6b", "fig6c", "fig6d"):
        errors = _by_number(fig6.get(key, {}))
        if not errors or not all(_finite(e) and 0 <= e <= MAX_ERROR_M for e in errors):
            v.append(f"fig6: {key} has missing or invalid errors: {errors}")
    errors = _by_number(fig6.get("fig6a", {"0": 0.0}))
    if not errors[-1] > errors[0]:
        v.append(f"fig6: error does not grow with ranging error: {errors}")

    for site, within in (("dock", 1.2), ("boathouse", 2.0)):
        unit = measured.get(f"fig18/{site}", {})
        if not _quantiles_ok(unit):
            v.append(f"fig18/{site}: invalid quantiles {unit.get('median')}, {unit.get('p95')}")
        elif not abs(unit["median"] - paper_fig18[site][0]) < within:
            v.append(f"fig18/{site}: median {unit['median']} not within {within} m of the paper")

    fig19 = measured.get("fig19", {})
    cases = [("removal", c) for c in ("fully_connected", "link_dropped", "node_dropped")]
    cases += [("occlusion", c) for c in ("with_detection", "without_detection")]
    for study, case in cases:
        stats = fig19.get(study, {}).get(case, {})
        # With 2 layouts, the dropped link can leave no round localized
        # (about one seed in 30): both quantiles are then NaN, which the
        # JSON form writes as null.
        unlocalized = case == "link_dropped" and all(
            k in stats and stats[k] is None for k in ("median", "p95")
        )
        if not (unlocalized or _quantiles_ok(stats)):
            v.append(f"fig19: {study} {case} quantiles invalid")
    rate = fig19.get("occlusion", {}).get("detection_drop_rate")
    if not (_finite(rate) and 0.0 <= rate <= 1.0):
        v.append(f"fig19: detection_drop_rate {rate} outside [0, 1]")

    for label in ("fig20/device1", "fig20/device2"):
        unit = measured.get(label, {})
        mover = str(unit.get("moving_device"))
        medians = (unit.get("moving_median_m", {}).get(mover), unit.get("static_median_m", {}).get(mover))
        if not all(_finite(m) and 0 <= m <= MAX_ERROR_M for m in medians):
            v.append(f"{label}: mover medians (moving, static) {medians} missing or invalid")
    return v


def check_fleet(summary: Mapping[str, Any], num_devices: int, num_rounds: int) -> List[str]:
    """Invariants every fleet summary satisfies, whatever the seed."""
    v: List[str] = []
    if summary.get("num_devices") != num_devices or summary.get("rounds") != num_rounds:
        v.append(f"fleet: ran {summary.get('num_devices')} nodes x {summary.get('rounds')} rounds")
    active = summary.get("mean_active", -1)
    if not 0 < active <= num_devices:
        v.append(f"fleet: mean_active {active} outside (0, {num_devices}]")
    reports = (
        summary.get("mean_direct_reports", 0)
        + summary.get("mean_relayed_reports", 0)
        + summary.get("mean_unreachable", 0)
    )
    # Every report owner except the leader is direct, relayed or
    # unreachable; silent devices own no report.
    if not 0 <= reports <= active - 1 + 1e-9:
        v.append(f"fleet: direct+relayed+unreachable {reports} > mean_active - 1 ({active - 1})")
    coverage = summary.get("mean_coverage", -1)
    if not 0.0 <= coverage <= 1.0:
        v.append(f"fleet: coverage {coverage} outside [0, 1]")
    tx = summary.get("total_tx_attempts", 0)
    if not tx > 0 or summary.get("total_collisions", -1) < 0:
        v.append(f"fleet: tx_attempts {tx}, collisions {summary.get('total_collisions')}")
    if summary.get("churn_leaves", -1) < 0 or summary.get("churn_joins", -1) < 0:
        v.append("fleet: negative churn counts")
    energy = summary.get("mean_energy_j_per_round", -1)
    if not (_finite(energy) and 0 < energy <= summary.get("max_energy_j_per_round", -1)):
        v.append(f"fleet: energy mean {energy} vs max {summary.get('max_energy_j_per_round')}")
    return v


def check_service(responses: Sequence[Any]) -> List[str]:
    """Per-request failures: non-200 status or a body that differs by key.

    ``responses`` holds one record per request with ``key``, ``status``
    and ``body`` attributes (``None`` for a request that never got a
    reply).  Returns one violation per failed request.
    """
    v: List[str] = []
    first: Dict[str, bytes] = {}
    for index, record in enumerate(responses):
        if record is None:
            v.append(f"request {index}: no response")
            continue
        if record.status != 200:
            v.append(f"request {index}: HTTP {record.status}")
            continue
        body = first.setdefault(record.key, record.body)
        if body != record.body:
            v.append(f"request {index}: body for key {record.key[:12]} differs from its first reply")
    return v
