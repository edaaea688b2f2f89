"""The traced benchmark wraps sphero functions by name; each name must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves_on_sphero(monkeypatch):
    hooks = _load_spans(monkeypatch).HOOKS
    assert hooks
    for mod_name, attr, _span, _observe in hooks:
        owner = importlib.import_module(f"sphero.{mod_name}")
        if "." in attr:
            # methods are wrapped on the class that defines them
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            assert meth in vars(owner), f"sphero.{mod_name}.{attr}"
            target = vars(owner)[meth]
        else:
            assert hasattr(owner, attr), f"sphero.{mod_name}.{attr}"
            target = getattr(owner, attr)
        assert callable(target), f"sphero.{mod_name}.{attr}"
