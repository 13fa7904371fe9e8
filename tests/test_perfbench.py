"""The benchmark patches braidrep by name and checks scan output against a
recorded reference; both must keep holding.  The library holds only what a
command or the benchmark runs."""

import ast
from collections import Counter
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
    # a top-level def or class, or a method other than a dunder, that only
    # tests reach belongs in tests/oracles.py or tests/helpers.py; the names
    # the benchmark traces stay, q_from_spec stays because the benchmark's
    # intertwiner workload calls it (classify.q_scalars is what library code
    # calls), westbury_dims is to fill classify --membership's westbury key,
    # and SquareMatrix.inverse is kept for the intertwiners of ROADMAP item 3.
    # The check goes by name: a definition counts as reached when library
    # code outside it reads a name or an attribute spelled like it, on
    # whatever object.
    traced = [attr for _, attr, _ in load_tracing().TRACED]
    allowed = set(traced) | {"q_from_spec", "westbury_dims", "SquareMatrix.inverse"}
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "braidrep").glob("*.py"))]

    def names(node):
        return Counter(getattr(ref, "id", None) or getattr(ref, "attr", None) or ref.name
                       for ref in ast.walk(node)
                       if isinstance(ref, (ast.Name, ast.Attribute, ast.alias)))

    read = sum(map(names, trees), Counter())
    defs = [(node.name, node) for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defs += [("%s.%s" % (cls.name, node.name), node)
             for _, cls in list(defs) if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)
             and not (node.name.startswith("__") and node.name.endswith("__"))]
    stray = [name for name, node in defs
             if name not in allowed and read[node.name] == names(node)[node.name]]
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
