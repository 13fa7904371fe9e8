"""The benchmark patches braidrep by name and checks scan output against a
recorded reference; both must keep holding.  The library holds only what a
command or the benchmark runs."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from braidrep import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SCAN_REFERENCE = PERFBENCH / "scan_reference.json"
REFERENCE = json.loads(SCAN_REFERENCE.read_text())


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = load_tracing()
    for mod_name, attr, _ in tracing.TRACED:
        module = importlib.import_module("braidrep." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # tracing reads the method from the class dict, not inherited
            assert meth in vars(getattr(module, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(module, attr)), (mod_name, attr)


def test_a_cached_parser_reaches_patched_commands(capsys):
    # main builds its parser once per process and looks the command up when
    # it runs, so the traced run's wrapper records a span while it is
    # installed and none once the original is back
    tracing = load_tracing()
    argv = ["dims", "--series", "bcd"]
    cli.main(argv)
    tracer = tracing.Tracer()
    tracer.install({mod: importlib.import_module("braidrep." + mod)
                    for mod, _, _ in tracing.TRACED})
    try:
        cli.main(argv)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("cli.dims") == 1
    cli.main(argv)
    assert [span[0] for span in tracer.spans].count("cli.dims") == 1


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


def test_every_library_definition_is_reached_from_library_code():
    # a top-level def or class that only tests reach belongs in
    # tests/oracles.py or tests/helpers.py; the names the benchmark traces
    # stay, and westbury_dims is to fill classify --membership's westbury key
    allowed = {attr for _, attr, _ in load_tracing().TRACED} | {"westbury_dims"}
    tops = [
        node for path in sorted((ROOT / "src" / "braidrep").glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    used = [
        {getattr(ref, "id", None) or getattr(ref, "attr", None) or ref.name
         for ref in ast.walk(node)
         if isinstance(ref, (ast.Name, ast.Attribute, ast.alias))}
        for node in tops
    ]
    stray = [
        node.name for node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in allowed
        and not any(node.name in refs for other, refs in zip(tops, used) if other is not node)
    ]
    assert stray == []


def test_every_imported_name_is_used_where_it_is_imported():
    # a name a library module imports and never reads is dead weight at
    # import time; from __future__ imports switch on features and are exempt
    unused = []
    for path in sorted((ROOT / "src" / "braidrep").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            (path.name, alias.asname or alias.name.split(".")[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert unused == []
