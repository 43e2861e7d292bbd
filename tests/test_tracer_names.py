"""The benchmark tracer (perfbench/spans.py) wraps the methods listed in its
CLASS_METHODS by looking each name up in its class's own ``__dict__``, so a
method moved into a base class or renamed would break a traced run.  The
list is read from the harness file as it stands, not copied here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def _class_methods() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.CLASS_METHODS


def test_traced_methods_are_defined_on_their_own_class():
    named = 0
    for layer, classes in _class_methods().items():
        module = importlib.import_module(f"skeinrep.{layer}")
        for cls_name, methods in classes.items():
            own = vars(getattr(module, cls_name))
            missing = [m for m in methods if m not in own]
            assert not missing, f"{layer}.{cls_name} lacks own {missing}"
            named += len(methods)
    assert named >= 40
