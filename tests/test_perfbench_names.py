"""perfbench's tracer patches etfforge functions by module attribute
(perfbench/spans.py, SPANNED and COUNTED); a renamed or dropped attribute
would only show in a traced benchmark run.  Those names are also the only
imports a module of src/etfforge may leave unused."""

import ast
import glob
import importlib
import importlib.util
import os
import re

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


def test_every_leaf_error_class_is_raised_in_src():
    # an error type that no line of src/ raises is dead code; a base class
    # such as ToolkitError, which other error types derive from, is exempt
    import etfforge.errors as errors

    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    leaves = {c.__name__ for c in classes if not any(o is not c and issubclass(o, c) for o in classes)}
    raised = set()
    for path in glob.glob(os.path.join(ROOT, "src", "etfforge", "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(leaves - raised) == []


def test_every_private_name_in_src_is_used():
    # a top-level _name that no other line of src/ mentions is dead code
    lines = {}
    defined = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "etfforge", "*.py"))):
        with open(path) as fh:
            text = fh.read()
        lines[path] = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    unused = [
        (os.path.basename(path), name)
        for path, lineno, name in defined
        if not any(re.search(r"\b%s\b" % name, line)
                   for other, text in lines.items()
                   for k, line in enumerate(text, 1)
                   if (other, k) != (path, lineno))
    ]
    assert unused == []
