"""Every function the traced benchmark pass wraps still exists.

``perfbench/run.py --trace 1`` installs spans around the names listed in
``perfbench/spans.py``; a renamed or deleted function would break that run
only when it is started. This test loads the list without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_dagquot_callable():
    spans = load_spans()
    assert spans.TARGETS
    for name, modname, cls, attr in spans.TARGETS:
        assert modname in spans.LAYERS, name
        module = importlib.import_module(f"dagquot.{modname}")
        if cls is None:
            target = getattr(module, attr, None)
        else:
            # the tracer replaces the attribute on the class itself
            target = vars(getattr(module, cls)).get(attr)
        assert callable(target), f"{name} names no dagquot callable"
