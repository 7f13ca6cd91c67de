"""The waveform figures keep their exchanges batched.

A figure that fell back to per-exchange work (one render or one
detection call per exchange) would still produce the same bytes; only
its wall clock would show it, and wall clocks depend on the host. This
test counts instead. It wraps the two batched Phase-B stages,
:meth:`BatchExchangeRenderer.render_plans` (trials per call) and
:func:`~repro.ranging.batch.detect_preamble_batch` (streams per call),
runs figs 11-15 on both waveform backends, and requires a mean batch
size derived from :class:`BatchOneWay`'s flush size.

The bound: ``BatchOneWay`` flushes every ``FLUSH = 24`` trials, so a
sweep point of ``n`` trials is rendered and detected in
``ceil(n / 24)`` calls averaging ``n / ceil(n / 24)`` trials, which is
``n`` when ``n <= 24`` and more than 12 when ``n > 24``. At
``SCALE = 0.5`` every sweep point of figs 11-15 holds at least 12
trials (fig14's points hold 12, fig15's 30), and the figures that
render or detect a whole sweep point directly (fig11's mic ablation,
fig12's detection trials) only add larger calls. So each figure's mean
is at least ``FLUSH // 2 = 12``; per-exchange work gives 1.
"""

import sys
from collections import defaultdict

import pytest

from repro.experiments import engine
from repro.ranging import batch as ranging_batch
from repro.simulate.batch_exchange import BatchExchangeRenderer

#: ``BatchOneWay``'s default flush size, in trials.
FLUSH = 24
MIN_MEAN_BATCH = FLUSH // 2
SCALE = 0.5


@pytest.fixture
def batch_sizes(monkeypatch):
    """Record the batch size of every render and detection call."""
    sizes = defaultdict(list)
    render_plans = BatchExchangeRenderer.render_plans
    detect = ranging_batch.detect_preamble_batch

    def counted_render(self, plans, noise_block=None):
        sizes["render_plans"].append(len(plans))
        return render_plans(self, plans, noise_block)

    def counted_detect(streams, *args, **kwargs):
        sizes["detect_preamble_batch"].append(len(streams))
        return detect(streams, *args, **kwargs)

    monkeypatch.setattr(BatchExchangeRenderer, "render_plans", counted_render)
    engine.load_registry()
    # Figure modules import the detector by name; patch every binding.
    for module in list(sys.modules.values()):
        if getattr(module, "detect_preamble_batch", None) is detect:
            monkeypatch.setattr(module, "detect_preamble_batch", counted_detect)
    return sizes


@pytest.mark.parametrize("backend", ["batch", "fast"])
@pytest.mark.parametrize("name", ["fig11", "fig12", "fig13", "fig14", "fig15"])
def test_waveform_figures_render_and_detect_in_batches(name, backend, batch_sizes):
    result = engine.run_unit(name, base_seed=7, scale=SCALE, backend=backend)
    assert result.status == "ok", result.error
    for stage in ("render_plans", "detect_preamble_batch"):
        calls = batch_sizes[stage]
        assert calls, f"{name}/{backend}: no {stage} call"
        mean = sum(calls) / len(calls)
        assert mean >= MIN_MEAN_BATCH, (
            f"{name}/{backend}: {stage} averaged {mean:.1f} per call over "
            f"{len(calls)} calls (at least {MIN_MEAN_BATCH}: BatchOneWay "
            f"flushes every {FLUSH} trials)"
        )
