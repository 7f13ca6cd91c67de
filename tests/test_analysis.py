"""Tests for the determinism invariant analyzer (``repro.analysis``).

Each rule gets positive (fires) and negative (stays quiet) coverage on
synthetic modules via :func:`analyze_source` below; the
CLI's exit-code contract (0 clean / 1 findings / 2 usage) is
pinned both in-process and through ``python -m repro.analysis``; and a
meta-test keeps the analyzer green on the committed tree — the lint gate
tests itself.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import all_rules, get_rule
from repro.analysis.__main__ import main as cli_main
from repro.analysis.engine import AnalysisReport, _run_rules, build_context, module_name_for

REPO_ROOT = Path(__file__).resolve().parents[1]


def analyze_source(source: str, *, module: str = "snippet") -> AnalysisReport:
    """Analyze one in-memory module with every registered rule."""
    active = all_rules()
    report = AnalysisReport(rules=[rule.id for rule in active])
    _run_rules(active, build_context(source, path="<memory>", module=module), report)
    report.files_scanned = 1
    return report


def findings_of(source: str, module: str = "repro.experiments.engine"):
    """Unsuppressed findings for an in-memory module."""
    return analyze_source(source, module=module).findings


def rule_ids(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# registry / catalog
# ---------------------------------------------------------------------------


def test_rule_catalog_has_the_six_contracts():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids)
    for required in ("XP001", "RNG001", "RNG002", "DET001", "ENV001", "DTYPE001"):
        assert required in ids
    assert len(ids) >= 6


def test_every_rule_documents_contract_and_hint():
    for rule in all_rules():
        assert rule.contract, rule.id
        assert rule.hint, rule.id


def test_get_rule_is_case_insensitive_and_raises_on_unknown():
    assert get_rule("xp001").id == "XP001"
    with pytest.raises(KeyError):
        get_rule("NOPE999")


# ---------------------------------------------------------------------------
# XP001 — FFT facade
# ---------------------------------------------------------------------------


def test_xp001_flags_fft_imports_and_calls():
    source = (
        "import numpy as np\n"
        "from scipy.fft import rfft\n"
        "import scipy.fft as sf\n"
        "def f(x):\n"
        "    return np.fft.fft(x) + rfft(x) + sf.irfft(x)\n"
    )
    found = [f for f in findings_of(source, module="repro.signals.ofdm") if f.rule == "XP001"]
    # Two import sites + three call sites.
    assert len(found) == 5
    assert any("scipy.fft" in f.message for f in found)
    assert any("numpy.fft.fft" in f.message for f in found)


def test_xp001_exempts_the_facade_module_itself():
    source = "import scipy.fft\nspec = scipy.fft.rfft([1.0, 2.0])\n"
    assert findings_of(source, module="repro.signals.xp") == []


def test_xp001_quiet_on_facade_usage():
    source = (
        "from repro.signals.xp import get_context\n"
        "def f(x):\n"
        "    ctx = get_context()\n"
        "    return ctx.irfft(ctx.rfft(x), x.size)\n"
    )
    assert rule_ids(findings_of(source, module="repro.signals.ofdm")) == []


# ---------------------------------------------------------------------------
# RNG001 — randomness provenance
# ---------------------------------------------------------------------------


def test_rng001_flags_legacy_global_api():
    source = (
        "import numpy as np\n"
        "from numpy.random import RandomState\n"
        "np.random.seed(0)\n"
        "x = np.random.normal(size=4)\n"
        "rs = RandomState(7)\n"
    )
    found = [f for f in findings_of(source) if f.rule == "RNG001"]
    assert len(found) == 3
    assert found[0].line == 3
    assert "numpy.random.seed" in found[0].message


def test_rng001_flags_seedless_default_rng_only():
    source = (
        "import numpy as np\n"
        "bad = np.random.default_rng()\n"
        "good = np.random.default_rng(1234)\n"
        "also_good = np.random.default_rng(seed=1234)\n"
    )
    found = [f for f in findings_of(source) if f.rule == "RNG001"]
    assert [f.line for f in found] == [2]
    assert "seedless" in found[0].message


def test_rng001_quiet_on_generator_methods():
    source = "def f(rng):\n    return rng.normal(size=3)\n"
    assert "RNG001" not in rule_ids(findings_of(source))


# ---------------------------------------------------------------------------
# RNG002 — Phase-A draw order
# ---------------------------------------------------------------------------

BATCH_MODULE = "repro.simulate.batch_exchange"


def test_rng002_quiet_in_sanctioned_sites():
    source = (
        "class BatchExchangeRenderer:\n"
        "    def add(self, rng):\n"
        "        return rng.normal(size=2)\n"
        "    def draw_noise_block(self, rng):\n"
        "        return rng.standard_normal(8)\n"
        "def spawn_substream(rng):\n"
        "    return rng.integers(0, 10)\n"
    )
    assert findings_of(source, module=BATCH_MODULE) == []


def test_rng002_flags_draws_outside_phase_a():
    source = (
        "class BatchExchangeRenderer:\n"
        "    def flush(self, rng):\n"
        "        return rng.normal(size=2)\n"
        "def helper(noise_rng):\n"
        "    return noise_rng.uniform()\n"
    )
    found = [f for f in findings_of(source, module=BATCH_MODULE) if f.rule == "RNG002"]
    assert [f.line for f in found] == [3, 5]
    assert "BatchExchangeRenderer.flush" in found[0].message
    assert "helper" in found[1].message


def test_rng002_scoped_to_pipelined_modules():
    source = "def f(rng):\n    return rng.normal()\n"
    assert "RNG002" not in rule_ids(findings_of(source, module="repro.simulate.executor"))


def test_rng002_pool_has_no_sanctioned_sites():
    source = "def submit(rng):\n    return rng.random()\n"
    found = findings_of(source, module="repro.experiments.pool")
    assert rule_ids(found) == ["RNG002"]


# ---------------------------------------------------------------------------
# DET001 — wall clocks / OS entropy / interpreter identity
# ---------------------------------------------------------------------------


def test_det001_flags_wall_clock_and_entropy():
    source = (
        "import time\n"
        "import os\n"
        "from datetime import datetime\n"
        "import uuid\n"
        "stamp = time.time()\n"
        "now = datetime.now()\n"
        "blob = os.urandom(8)\n"
        "tag = uuid.uuid4()\n"
    )
    found = [f for f in findings_of(source) if f.rule == "DET001"]
    assert [f.line for f in found] == [5, 6, 7, 8]
    assert "wall clock" in found[0].message


def test_det001_allows_monotonic_timers():
    source = "import time\nt0 = time.perf_counter()\nt1 = time.monotonic()\n"
    assert findings_of(source) == []


def test_det001_flags_stdlib_random_and_id_keys():
    source = (
        "import random\n"
        "x = random.random()\n"
        "cache = {id(obj): 1 for obj in []}\n"
        "def f(d, k):\n"
        "    return d[id(k)]\n"
    )
    found = [f for f in findings_of(source) if f.rule == "DET001"]
    assert len(found) == 3
    assert any("id()-keyed" in f.message for f in found)


def test_det001_exempts_the_serving_front_end():
    source = "import time\nstamp = time.time()\n"
    assert findings_of(source, module="repro.service.server") == []
    assert rule_ids(findings_of(source, module="repro.service.store")) == ["DET001"]


# ---------------------------------------------------------------------------
# ENV001 — os.environ choke points
# ---------------------------------------------------------------------------


def test_env001_flags_reads_outside_the_helpers():
    source = (
        "import os\n"
        "from os import environ\n"
        "a = os.environ.get('REPRO_FFT_WORKERS')\n"
        "b = os.getenv('REPRO_PIPELINE_DEPTH')\n"
        "c = environ['HOME']\n"
    )
    found = [f for f in findings_of(source) if f.rule == "ENV001"]
    assert [f.line for f in found] == [3, 4, 5]


def test_env001_quiet_in_sanctioned_modules():
    source = "import os\nval = os.environ.get('REPRO_CACHE_MAX_BYTES')\n"
    for module in ("repro.signals.batchcorr", "repro.service.store"):
        assert findings_of(source, module=module) == []


def test_env001_fires_in_the_retired_choke_points():
    # The array facade and the worker pool read no knob any more, so a
    # new os.environ read there must be flagged like anywhere else.
    source = "import os\nval = os.environ.get('REPRO_ARRAY_BACKEND')\n"
    for module in ("repro.signals.xp", "repro.experiments.pool"):
        assert rule_ids(findings_of(source, module=module)) == ["ENV001"]


# ---------------------------------------------------------------------------
# DTYPE001 — kernel dtype hygiene
# ---------------------------------------------------------------------------

KERNEL_MODULE = "repro.channel.render"


def test_dtype001_flags_literal_dtypes_in_kernels():
    source = (
        "import numpy as np\n"
        "def f(x, ctx):\n"
        "    a = np.asarray(x, dtype=float)\n"
        "    b = x.astype(float)\n"
        "    c = np.float64(x)\n"
        "    d = np.zeros(3, dtype='float32')\n"
        "    e = np.empty(3, dtype=np.complex128)\n"
        "    return a, b, c, d, e\n"
    )
    found = [f for f in findings_of(source, module=KERNEL_MODULE) if f.rule == "DTYPE001"]
    assert [f.line for f in found] == [3, 4, 5, 6, 7]


def test_dtype001_allows_context_sourced_dtypes():
    source = (
        "import numpy as np\n"
        "def f(x, ctx):\n"
        "    a = np.asarray(x, dtype=ctx.real_dtype)\n"
        "    b = x.astype(ctx.complex_dtype, copy=False)\n"
        "    return a, b\n"
    )
    assert findings_of(source, module=KERNEL_MODULE) == []


def test_dtype001_scoped_to_kernel_modules():
    source = "import numpy as np\nx = np.asarray([1], dtype=float)\n"
    assert findings_of(source, module="repro.geometry.anchors") == []


# ---------------------------------------------------------------------------
# pragma semantics
# ---------------------------------------------------------------------------


def test_pragma_with_reason_suppresses_and_keeps_the_reason():
    source = (
        "import numpy as np\n"
        "def f(x):\n"
        "    return np.asarray(x, dtype=float)  "
        "# repro: allow[DTYPE001] geometry is float64\n"
    )
    report = analyze_source(source, module=KERNEL_MODULE)
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].suppression_reason == "geometry is float64"


def test_pragma_without_reason_is_ignored():
    source = "import numpy as np\nx = np.asarray([1], dtype=float)  # repro: allow[DTYPE001]\n"
    report = analyze_source(source, module=KERNEL_MODULE)
    assert rule_ids(report.findings) == ["DTYPE001"]
    assert report.suppressed == []


def test_pragma_only_covers_the_named_rules_on_its_own_line():
    source = (
        "import time\n"
        "a = time.time()  # repro: allow[DET001] diagnostic stamp\n"
        "b = time.time()  # repro: allow[XP001] wrong rule named\n"
        "c = time.time()\n"
    )
    report = analyze_source(source, module="repro.experiments.engine")
    assert [f.line for f in report.findings] == [3, 4]
    assert [f.line for f in report.suppressed] == [2]


def test_pragma_accepts_a_rule_list():
    source = (
        "import numpy as np\n"
        "x = np.asarray([1], dtype=float)  "
        "# repro: allow[DTYPE001, XP001] mixed exemption\n"
    )
    report = analyze_source(source, module=KERNEL_MODULE)
    assert report.findings == []
    assert rule_ids(report.suppressed) == ["DTYPE001"]


# ---------------------------------------------------------------------------
# CLI exit codes and formats
# ---------------------------------------------------------------------------


def write_violation_tree(tmp_path: Path) -> Path:
    """A minimal src-layout tree with one DET001 violation in engine.py."""
    pkg = tmp_path / "src" / "repro" / "experiments"
    pkg.mkdir(parents=True)
    target = pkg / "engine.py"
    target.write_text("import time\n\nSTAMP = time.time()\n")
    return target


def test_cli_exit_0_on_clean_tree(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("x = 1\n")
    assert cli_main(["--root", str(tmp_path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_exit_1_with_rule_id_and_location_on_violation(tmp_path, capsys):
    target = write_violation_tree(tmp_path)
    assert cli_main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "src/repro/experiments/engine.py:3" in out
    assert str(target.name) in out


def test_cli_exit_2_on_unknown_rule(tmp_path, capsys):
    write_violation_tree(tmp_path)
    assert cli_main(["--root", str(tmp_path), "--rules", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_exit_2_on_missing_path(tmp_path, capsys):
    assert cli_main(["--root", str(tmp_path), "no/such/dir"]) == 2
    assert "no such path" in capsys.readouterr().err


@pytest.mark.parametrize("retired", [["--check"], ["--baseline", "b.json"], ["--write-baseline"]])
def test_cli_retired_baseline_options_are_usage_errors(retired, tmp_path, capsys):
    # A command copied from an old doc must fail loudly, not lint with
    # the option silently ignored.
    write_violation_tree(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(["--root", str(tmp_path), *retired])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_rules_filter_skips_other_contracts(tmp_path, capsys):
    write_violation_tree(tmp_path)
    assert cli_main(["--root", str(tmp_path), "--rules", "XP001,RNG001"]) == 0
    capsys.readouterr()


def test_cli_json_report_schema(tmp_path, capsys):
    write_violation_tree(tmp_path)
    assert cli_main(["--root", str(tmp_path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro-analysis-report/2"
    assert doc["counts"]["DET001"] == 1
    finding = doc["findings"][0]
    assert finding["rule"] == "DET001"
    assert finding["path"] == "src/repro/experiments/engine.py"
    assert finding["line"] == 3
    assert "baselined" not in doc and "stale_baseline" not in doc


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("XP001", "RNG001", "RNG002", "DET001", "ENV001", "DTYPE001"):
        assert rule_id in out


# ---------------------------------------------------------------------------
# the gate gates itself
# ---------------------------------------------------------------------------


def test_module_name_resolution():
    assert module_name_for(Path("src/repro/signals/ofdm.py")) == "repro.signals.ofdm"
    assert module_name_for(Path("src/repro/analysis/__init__.py")) == "repro.analysis"
    assert module_name_for(Path("somewhere/scratch.py")) == "scratch"


def test_analyzer_is_clean_on_the_committed_tree():
    assert cli_main(["--root", str(REPO_ROOT)]) == 0


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def test_module_entry_point_clean_then_seeded_violation(tmp_path):
    clean = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", str(REPO_ROOT)],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr

    # Seed a violation into a copy of the tree: time.time() in engine.py
    # must flip the exit code and name the rule and location.
    src_copy = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", src_copy)
    engine_py = src_copy / "repro" / "experiments" / "engine.py"
    engine_py.write_text(engine_py.read_text() + "\n_SEEDED_STAMP = time.time()\n")
    seeded_line = len(engine_py.read_text().splitlines())
    seeded = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", str(tmp_path)],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert seeded.returncode == 1, seeded.stdout + seeded.stderr
    assert "DET001" in seeded.stdout
    assert f"src/repro/experiments/engine.py:{seeded_line}" in seeded.stdout


# ---------------------------------------------------------------------------
# benchmarks/check_analysis.py — CI summary over the JSON report
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def check_analysis():
    spec = importlib.util.spec_from_file_location(
        "check_analysis", REPO_ROOT / "benchmarks" / "check_analysis.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_analysis", module)
    spec.loader.exec_module(module)
    return module


def run_cli_json(tmp_path, capsys) -> dict:
    write_violation_tree(tmp_path)
    cli_main(["--root", str(tmp_path), "--format", "json"])
    return json.loads(capsys.readouterr().out)


def test_check_analysis_renders_findings(check_analysis, tmp_path, capsys):
    report = run_cli_json(tmp_path, capsys)
    artifact = tmp_path / "analysis.json"
    summary = tmp_path / "summary.md"
    artifact.write_text(json.dumps(report))
    # The renderer holds no verdict: it exits 0 once the table is written,
    # and CI takes pass/fail from the analyzer's own exit status.
    assert check_analysis.main(["--input", str(artifact), "--summary", str(summary)]) == 0
    text = summary.read_text()
    assert "FAILING" in text
    assert "| rule | new | suppressed |" in text
    assert "| DET001 | 1 | 0 |" in text
    assert "src/repro/experiments/engine.py:3" in text


def test_check_analysis_renders_clean_report(check_analysis, tmp_path, capsys):
    report = run_cli_json(tmp_path, capsys)
    report["findings"] = []
    report["suppressed"] = [{"rule": "DTYPE001", "path": "src/k.py", "line": 2}]
    artifact = tmp_path / "analysis.json"
    artifact.write_text(json.dumps(report))
    assert check_analysis.main(["--input", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "**clean**" in out
    assert "0 new finding(s), 1 pragma-suppressed" in out
    assert "| DTYPE001 | 0 | 1 |" in out


def test_check_analysis_rejects_unknown_schema(check_analysis, tmp_path, capsys):
    artifact = tmp_path / "analysis.json"
    # A schema-1 report still carries baseline fields; refuse it.
    artifact.write_text(json.dumps({"schema": "repro-analysis-report/1"}))
    assert check_analysis.main(["--input", str(artifact)]) == 2
    capsys.readouterr()
