"""The benchmark's tracer (perfbench/spans.py) wraps named entry points of
the library with ``getattr``; a renamed or removed one breaks ``--trace 1``.
The file is loaded read-only and its tracer installed and uninstalled."""

import importlib.util
from pathlib import Path

import gotonum
import gotonum.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    spans = _load_spans()
    missing = []
    for layer, entries in spans.ENTRY_POINTS.items():
        module = getattr(gotonum, layer)
        for entry in entries:
            owner, _, attr = entry.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{layer}.{entry}")
    assert not missing


def test_tracer_installs_and_restores():
    spans = _load_spans()
    originals = {
        (layer, entry): getattr(getattr(gotonum, layer), entry)
        for layer, entries in spans.ENTRY_POINTS.items()
        for entry in entries
        if "." not in entry
    }
    tracer = spans.Tracer(gotonum)
    try:
        tracer.install()
        assert gotonum.colon.dual_goto is not originals[("colon", "dual_goto")]
    finally:
        tracer.uninstall()
    for (layer, entry), fn in originals.items():
        assert getattr(getattr(gotonum, layer), entry) is fn
