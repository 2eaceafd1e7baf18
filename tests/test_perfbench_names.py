"""perfbench's tracer patches etfforge functions by module attribute
(perfbench/spans.py, SPANNED and COUNTED); a renamed or dropped attribute
would only show in a traced benchmark run.  Those names are also the only
imports a module of src/etfforge may leave unused."""

import ast
import glob
import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_PATH = os.path.join(ROOT, "perfbench", "spans.py")


def _traced_names():
    """(module, attribute) for every name perfbench/spans.py patches."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib imports only
    return [(module, attr) for module, attr, _ in spans.SPANNED + spans.COUNTED]


def test_every_traced_name_resolves():
    missing = [
        (module, attr)
        for module, attr in _traced_names()
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_import_in_src_is_used():
    # a name imported only so that perfbench can patch it is exempt
    patched = set(_traced_names())
    unused = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "etfforge", "*.py"))):
        module = "etfforge." + os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(module, name) for name in sorted(imported - used)
                   if (module, name) not in patched]
    assert unused == []
