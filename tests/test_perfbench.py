"""The benchmark patches braidrep by name and checks scan output against a
recorded reference; both must keep holding."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from braidrep import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SCAN_REFERENCE = PERFBENCH / "scan_reference.json"
REFERENCE = json.loads(SCAN_REFERENCE.read_text())


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


@pytest.mark.parametrize("entry", list(REFERENCE["csv"]))
def test_scan_matches_recorded_reference(entry, capsys):
    # the benchmark checks every scan row against this file byte for byte; a
    # change in the samplers' draw order or in any CSV cell (the sl2z/psl2z
    # flags included) would otherwise show only there
    kind, seed = entry.split(":")
    rows = {name: count for name, count, _ in REFERENCE["kinds"]}[kind]
    argv = ["scan", "--dim", str(REFERENCE["dim"]), "--count", str(rows),
            "--seed", seed, "--kind", kind, "--oracle", "burnside"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == REFERENCE["csv"][entry] + "\n"
