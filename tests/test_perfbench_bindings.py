"""The benchmark's span recorder still finds the functions it wraps.

`perfbench/spans.py` times dynrec by replacing named module bindings, and it
reports a binding that no longer exists as absent instead of failing. So a
rename in `src/` would silently zero a per-layer metric. This test resolves
every binding with the recorder's own resolver and pins the absent ones, so
losing a binding shows up as an edit to this file.
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Bindings the recorder lists but the program no longer has: pre-training is
# called only from the CLI, the CLI hashes files only through the manifest,
# and gate tuning samples and back-propagates through dynrec.training's loop.
ABSENT = {
    "dynrec.dynamics:pretrain",
    "dynrec.cli:sha256_file",
    "dynrec.prompt:forward_backward",
    "dynrec.prompt:sample_negatives",
}


def _load_spans(monkeypatch) -> types.ModuleType:
    # executed from its source, so nothing is imported from or written under
    # perfbench/; registered for the test only, as its dataclasses look it up
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_wrapped_binding_resolves_except_the_known_absent_ones(monkeypatch):
    spans = _load_spans(monkeypatch)
    bindings = [b for target in spans.TARGETS for b in target.bindings]
    absent = {b for b in bindings if spans._resolve(b) is None}
    assert absent == ABSENT
