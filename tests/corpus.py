"""CLI byte-identity corpus: a fixed list of `python -m braidrep` commands.

    python3 tests/corpus.py [CHECKOUT] > corpus.txt

runs every command against CHECKOUT/src (default: the checkout holding this
file) and prints one line per command: the exit code, the sha256 of stdout,
the sha256 of stderr and the argv.  `verify` reads the JSON that the
`construct` named on its line prints, as is or with one entry replaced by
"1/0".  Two checkouts give the same bytes, exit codes included, on every
command exactly when `diff` of their two outputs is empty.  The file's name
keeps pytest from collecting it.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys

KINDS = ("random", "degenerate", "central")

# --eig strings at the edge of the scalar grammar or past it, each read
# over Q and over Q[z]/(z^2+1)
EIG_STRINGS = (
    "1/2", "-3/4", "(1+1)/(3)", "--2", "+-+7", "٣", " 5 ", "\t2", "0", "",
    "1/0", "(1)/(0)", "(1)/(2-2)", "1.5", "x", "3 4", "3/-4", "2^3", "(3)",
    "1/2)", "(1+2", "(1)/(2", "2*", "1+", "$", "z^2", "z^-1", "(1)/(z^2+1)",
    "2*z+1", "(1)/(2)*3", "(1)/(2)3", "(1)/(2))",
)

MODULI = (
    "z^2+1", "z^2 + 3", "z^2+z+1", "x^3-2", "z^4+1", "z^2-1", "z^4-1",
    "z^2+1+y", "3", "2*z^2+1", "z^-1+z^2", "z^5+z^3+2*z^2+2",
)

# construct argv whose JSON verify reads back
PAIRS = (
    ["--eig", "2", "--eig", "3"],
    ["--eig", "1", "--eig", "2", "--eig", "5"],
    ["--eig", "1", "--eig", "2", "--eig", "2", "--eig", "1", "--D", "2"],
    ["--eig", "1", "--eig", "1", "--eig", "1", "--eig", "1", "--eig", "32", "--gamma", "2"],
    ["--symbolic", "--dim", "2"],
    ["--symbolic", "--dim", "3"],
    ["--symbolic", "--dim", "4"],
    ["--symbolic", "--dim", "5"],
    ["--modulus", "z^2+1", "--eig", "z", "--eig", "2"],
    ["--family", "binomial", "--eig", "4", "--eig", "2", "--eig", "1"],
)

# specs over Q with fractional eigenvalues, d = 2..5: a fractional D, a
# negative and a fractional gamma, and a vanishing Q in each of d = 3..5
Q_SPECS = tuple(
    ["--eig=" + x for x in eigs.split()] + root.split()
    for eigs, root in (
        ("1/2 -3/4", ""),
        ("2/3 -1/5 7/2", ""),
        ("1/2 3/5 -5/12", ""),
        ("1/2 2/3 3/4 9", "--D=-1/3"),
        ("2 2/3 3/4 16", "--D=-1/8"),
        ("1/3 2 3/4 -1/5 5/16", "--gamma=-1/2"),
        ("1/3 -3/4 2 -5/7 7/80", "--gamma=1/2"),
        ("1/2 -8/9 3 1/5 40/81", "--gamma=-2/3"),
    )
)

# negative values given as arguments of their own, not joined by "="
LONE_NEGATIVES = (
    ["--eig", "1/2", "--eig", "2/3", "--eig", "3/4", "--eig", "9", "--D", "-1/3"],
    ["--eig", "1/3", "--eig", "2", "--eig", "3/4", "--eig", "-1/5", "--eig", "5/16",
     "--gamma", "-1/2"],
    ["--modulus", "z^2+1", "--eig", "-z", "--eig", "3"],
)

# commands whose Burnside oracle runs the word-span fallback
# (classify.word_span_oracle, where norton_orbits returns None), which no
# other command reaches
WORD_SPAN = (
    ["scan", "--dim", "4", "--count", "30", "--seed", "3", "--bound", "1",
     "--kind", "degenerate", "--oracle", "burnside"],
    ["scan", "--dim", "5", "--count", "20", "--seed", "1", "--bound", "1",
     "--kind", "central", "--oracle", "burnside"],
    ["classify", "--eig", "1", "--eig", "1", "--eig", "1", "--eig", "1", "--D=-1",
     "--oracle", "burnside"],
)

USAGE = (
    [],
    ["classify"],
    ["classify", "--dim", "3", "--eig", "1"],
    ["classify", "--eig", "1", "--eig", "2", "--D", "1"],
    ["classify", "--symbolic", "--dim", "3", "--eig", "1"],
    ["qpoly", "--eig", "1", "--eig", "2", "--eig", "3", "--r", "1"],
    ["scan", "--dim", "6"],
    ["scan", "--dim", "3", "--count", "-1"],
    ["scan", "--dim", "3", "--bound", "0"],
    ["construct", "--family", "binomial", "--symbolic", "--dim", "3"],
    ["construct", "--family", "binomial", "--eig", "1", "--eig", "2", "--D", "1"],
    ["construct", "--family", "binomial", "--eig", "1", "--eig", "2", "--eig", "3"],
    ["verify", "--file", "no-such-file.json"],
    ["dims", "--series", "other"],
)


def commands():
    """(argv, construct argv or None, whether an entry becomes "1/0") per command."""
    for d in range(2, 6):
        for kind in KINDS:
            yield ["scan", "--dim", str(d), "--kind", kind, "--count", "30",
                   "--seed", str(d), "--oracle", "burnside"], None, False
            yield ["scan", "--dim", str(d), "--kind", kind, "--count", "30",
                   "--seed", "11", "--bound", "3"], None, False
    for series in ("exceptional", "bcd"):
        for fmt in ("json", "text"):
            yield ["dims", "--series", series, "--format", fmt], None, False
    for d in range(2, 6):
        for fmt in ("json", "text"):
            yield ["construct", "--symbolic", "--dim", str(d), "--format", fmt], None, False
            yield ["qpoly", "--symbolic", "--dim", str(d), "--format", fmt], None, False
            yield ["classify", "--symbolic", "--dim", str(d), "--format", fmt], None, False
        yield ["qpoly", "--symbolic", "--dim", str(d), "--r", "1", "--s", "2"], None, False
    for text in EIG_STRINGS:
        yield ["classify", "--eig", text, "--eig", "3", "--report-only",
               "--format", "text"], None, False
        yield ["classify", "--modulus", "z^2+1", "--eig", text, "--eig", "3",
               "--membership", "--report-only"], None, False
    for modulus in MODULI:
        yield ["classify", "--modulus", modulus, "--eig", "1", "--eig", "2",
               "--oracle", "burnside", "--membership", "--certificate"], None, False
    yield ["classify", "--eig", "1", "--eig", "2", "--eig", "2", "--eig", "1", "--D", "2",
           "--oracle", "burnside", "--membership", "--certificate"], None, False
    yield ["classify", "--eig", "1", "--eig", "-1", "--eig", "1"], None, False
    yield ["qpoly", "--eig", "1", "--eig", "1", "--eig", "1", "--eig", "1", "--eig", "32",
           "--gamma", "2", "--format", "text"], None, False
    for spec in Q_SPECS:
        for fmt in ("json", "text"):
            yield ["qpoly", *spec, "--format", fmt], None, False
            yield ["classify", *spec, "--oracle", "burnside", "--membership",
                   "--certificate", "--format", fmt], None, False
        yield ["qpoly", *spec, "--r", "2", "--s", "1"], None, False
    for spec in LONE_NEGATIVES:
        yield ["qpoly", *spec], None, False
        yield ["classify", *spec, "--oracle", "burnside", "--membership",
               "--certificate"], None, False
    for pair in PAIRS:
        for check in ("all", "braid"):
            for broken in (False, True):
                yield ["verify", "--check", check], ["construct", *pair], broken
        yield ["construct", *pair, "--format", "text"], None, False
    for argv in WORD_SPAN + USAGE:
        yield argv, None, False


def run(root, argv, stdin=b""):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "braidrep", *argv], input=stdin,
                          capture_output=True, env=env, cwd=root)


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else os.path.join(__file__, "..", ".."))
    for args, source, broken in commands():
        stdin, shown = b"", shlex.join(args)
        if source is not None:
            stdin = run(root, source).stdout
            if broken:
                data = json.loads(stdin)
                data["A"][0][0] = "1/0"
                stdin = json.dumps(data, indent=2).encode()
            shown += " < %s%s" % (shlex.join(source), " [A[0][0] = 1/0]" if broken else "")
        proc = run(root, args, stdin)
        print(proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
              hashlib.sha256(proc.stderr).hexdigest(), shown)


if __name__ == "__main__":
    main(sys.argv)
