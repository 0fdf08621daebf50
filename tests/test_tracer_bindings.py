"""The benchmark tracer's bindings against the package.

``perfbench/spans.py`` wraps named attributes of the ``lramimo`` modules.
Installing and uninstalling it here fails at once when a rename or a
deletion leaves the tracer pointing at a name that no longer exists.
"""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    """Execute spans.py from its source, writing no bytecode next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_install_then_uninstall_restores_every_binding():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
