"""The library names that the benchmark's trace wraps must keep resolving:
a name that moves leaves its layer metrics at zero without failing a run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    # the lookup of Tracer.install, without installing any wrapper
    missing = []
    for owner, attr, _name, _measure in _load_spans()._wrap_targets():
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert missing == []
