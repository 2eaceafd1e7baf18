"""perfbench's tracer patches etfforge functions by module attribute
(perfbench/spans.py, SPANNED and COUNTED); a renamed or dropped attribute
would only show in a traced benchmark run."""

import importlib
import importlib.util
import os

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib imports only
    missing = [
        (module, attr)
        for module, attr, _ in spans.SPANNED + spans.COUNTED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
