"""The program interface the repo benchmark (``perfbench/``) relies on.

``perfbench/run.py`` wraps every ``trace.TARGETS`` callable before a
traced pass (``Recorder.install`` raises on a missing one) and imports
names from ``repro`` at the end of every run, so a rename or deletion
of any of them ends every workload with an error instead of a figure.
These tests resolve each name the benchmark uses without running it:
the trace targets, every ``from repro... import`` in ``perfbench/*.py``
and every attribute the benchmark reads from a module imported that
way.
"""

from __future__ import annotations

import ast
import importlib
import sys
import types
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.trace import TARGETS  # noqa: E402

BENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def _resolve(module: str, path: str):
    """``module`` imported, then each dotted part of ``path`` read off it
    (a submodule is imported when no attribute has its name)."""
    obj = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
            submodule = f"{obj.__name__}.{part}"
            try:
                importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        obj = getattr(obj, part)
    return obj


def _repro_imports() -> List[Tuple[str, str, str, List[str]]]:
    """``(file, module, name, attributes read off the bound name)`` for
    every ``from repro... import name`` in ``perfbench/*.py``."""
    found = []
    for path in BENCH_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
        reads = {local: set() for local in bound}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in reads
            ):
                reads[node.value.id].add(node.attr)
        for local, (module, name) in sorted(bound.items()):
            found.append((path.name, module, name, sorted(reads[local])))
    return found


REPRO_IMPORTS = _repro_imports()


def test_scan_finds_the_run_time_imports():
    """The scan sees the names ``run.py`` imports at the end of a run."""
    names = {(module, name) for _, module, name, _ in REPRO_IMPORTS}
    assert ("repro.simulate.batch_exchange", "pipeline_depth") in names
    assert ("repro.signals.batchcorr", "fft_workers") in names
    assert ("repro.signals.xp", "get_context") in names


@pytest.mark.parametrize(
    "span, module, path", [(span, module, path) for span, module, path, _, _ in TARGETS]
)
def test_trace_target_resolves(span, module, path):
    assert callable(_resolve(module, path)), span


@pytest.mark.parametrize(
    "where, module, name, attributes",
    REPRO_IMPORTS,
    ids=[f"{where}:{module}.{name}" for where, module, name, _ in REPRO_IMPORTS],
)
def test_benchmark_import_resolves(where, module, name, attributes):
    obj = _resolve(module, name)
    missing = [attr for attr in attributes if not hasattr(obj, attr)]
    assert not missing, f"{where} reads {missing} from {module}.{name}"
