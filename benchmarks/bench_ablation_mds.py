"""Ablation: SMACOF vs classical (Torgerson) MDS.

DESIGN.md calls out the choice of SMACOF over one-shot classical MDS.
This bench quantifies it: with missing links and noise, SMACOF's
iterative majorization recovers the topology markedly better than the
classical solution it is initialised from.
"""

import numpy as np

from repro.geometry.procrustes import procrustes_error
from repro.geometry.topology import (
    drop_links,
    full_weight_matrix,
    pairwise_distance_matrix,
)
from repro.localization.smacof import classical_mds, smacof
from repro.localization.smacof import _graph_complete_distances


def _one_comparison(seed: int):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-15, 15, (6, 2))
    spread = np.linalg.svd(pts - pts.mean(0), compute_uv=False)
    if spread[-1] < 2.0:
        return None
    d = pairwise_distance_matrix(pts)
    noisy = d + rng.uniform(-0.5, 0.5, d.shape)
    noisy = np.abs(np.triu(noisy, 1))
    noisy = noisy + noisy.T
    w, _ = drop_links(full_weight_matrix(6), 2, rng)
    completed = _graph_complete_distances(noisy, w)
    classical = classical_mds(completed)
    iterative = smacof(noisy, w).positions
    return (
        float(np.mean(procrustes_error(classical, pts))),
        float(np.mean(procrustes_error(iterative, pts))),
    )


def test_ablation_smacof_vs_classical(report):
    rows = [r for seed in range(40) if (r := _one_comparison(seed)) is not None]
    classical_errs = np.array([r[0] for r in rows])
    smacof_errs = np.array([r[1] for r in rows])
    report(
        "Ablation (MDS solver): mean shape error with 2 missing links\n"
        f"  classical MDS -> {classical_errs.mean():.2f} m\n"
        f"  SMACOF        -> {smacof_errs.mean():.2f} m"
    )
    assert smacof_errs.mean() < classical_errs.mean()
