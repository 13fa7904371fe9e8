"""The benchmark's traced run patches braidrep by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, attr, _ in tracing.TRACED:
        module = importlib.import_module("braidrep." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # tracing reads the method from the class dict, not inherited
            assert meth in vars(getattr(module, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(module, attr)), (mod_name, attr)
