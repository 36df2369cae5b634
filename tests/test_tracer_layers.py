"""The benchmark tracer wraps library calls by module and attribute name; a
refactor that renames or moves one would silently zero its per-layer metric."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import splitnash

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "module, attribute", [layer[:2] for layer in TRACER.SPAN_LAYERS + TRACER.COUNT_LAYERS]
)
def test_traced_attribute_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


def test_counted_calls_are_positional():
    # the count wrapper takes *args only
    counted = {attribute for _, attribute, _ in TRACER.COUNT_LAYERS}
    for path in Path(splitnash.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in counted:
                    assert not node.keywords, f"{path.name}:{node.lineno} calls {name} by keyword"
