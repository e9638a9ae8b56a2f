"""The names that `perfbench` hooks into must exist in the package.

`perfbench/spans.py` wraps functions by module and attribute path, and
`perfbench/worker.py kernels` times kernels by name.  A rename or deletion
under `src/` would crash a traced benchmark run; these tests catch it first.
Both files are read, never imported as modules or written.
"""

import ast
import importlib
import types
from pathlib import Path

from orbirr import _kernels, curves, exact

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans() -> types.ModuleType:
    # exec the source instead of importing it, so no bytecode cache is written
    path = PERFBENCH / "spans.py"
    mod = types.ModuleType("perfbench_spans")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def test_span_targets_resolve():
    spans = _load_spans()
    assert spans.SPAN_TARGETS
    for modname, path, _ in spans.SPAN_TARGETS:
        obj = importlib.import_module(modname)
        for part in path.split("."):
            assert hasattr(obj, part), f"{modname}.{path} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{path} is not callable"


def test_counter_hooks_exist():
    spans = _load_spans()
    for meth in spans.CYCLOTOMIC_OPS:
        assert meth in exact.Cyclotomic.__dict__, meth
    assert callable(exact._check_conductor)
    assert callable(curves._point_total.cache_info)


def _timed_kernels() -> set[str]:
    # every `kern.<name>` that worker.kernels() calls
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "kernels")
    return {node.attr for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "kern"}


def test_worker_kernels_exist():
    names = _timed_kernels()
    assert names, "worker.kernels() calls no kernel"
    for name in names:
        assert callable(getattr(_kernels, name, None)), name
