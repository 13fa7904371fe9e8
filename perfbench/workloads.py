"""The three benchmark workloads: inputs derived from a seed, checked items.

A workload is cut into blocks of equal composition; a block is generated
from (workload seed, block index) alone, so every run with one seed sees the
same inputs in the same order.  run_block() executes one block and returns
a BlockResult: the block's wall time (the sum of its calls) and, per item,
its time, whether it passed every output check, and tags used for the
input shares reported with each result.
"""

import contextlib
import io
import json
import random
import sys
from collections import namedtuple
from itertools import combinations
from pathlib import Path
from time import perf_counter

Item = namedtuple("Item", "seconds ok tags")
BlockResult = namedtuple("BlockResult", "wall items")

HERE = Path(__file__).resolve().parent


def _log(message):
    print(message, file=sys.stderr)


class _LineClock(io.TextIOBase):
    """stdout stand-in that timestamps every completed line."""

    def __init__(self, on_line=None):
        self.parts = []
        self.lines = []
        self.times = []
        self.on_line = on_line

    def write(self, text):
        self.parts.append(text)
        if "\n" in text:
            now = perf_counter()
            done = "".join(self.parts).split("\n")
            self.parts = [done.pop()]
            for line in done:
                self.lines.append(line)
                self.times.append(now)
                if self.on_line is not None:
                    self.on_line(len(self.lines))
        return len(text)


def _run_cli(cli, argv, on_line=None):
    """Run braidrep's CLI in-process; returns (exit code, LineClock, stderr,
    seconds).  An exception escaping main() is reported as exit code None."""
    out, err = _LineClock(on_line), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed item, the run goes on
        code = None
        err.write("%s: %s\n" % (type(exc).__name__, exc))
    return code, out, err.getvalue(), perf_counter() - start


# ---------------------------------------------------------------------------


class SpanScan:
    """`braidrep scan --dim 5 --oracle burnside` calls; one CSV row per item.

    Every call is drawn from a pool whose CSV output was recorded at the
    seed commit (scan_reference.json), so each row is checked byte for byte
    against that reference as well as for an `agree` oracle column.
    """

    name = "span-scan"
    REFERENCE = HERE / "scan_reference.json"

    def __init__(self, modules, seed):
        self.cli = modules["cli"]
        self.seed = seed
        with open(self.REFERENCE) as handle:
            ref = json.load(handle)
        self.dim = ref["dim"]
        self.kinds = ref["kinds"]  # [kind, rows per call, first pool seed]
        self.pool = ref["pool"]
        self.expected = ref["csv"]

    def block(self, index):
        rng = random.Random("%s/%d/%d" % (self.name, self.seed, index))
        return [
            (kind, count, first + rng.randrange(self.pool))
            for kind, count, first in self.kinds
        ]

    def argv(self, kind, count, cli_seed):
        return [
            "scan", "--dim", str(self.dim), "--count", str(count),
            "--seed", str(cli_seed), "--kind", kind, "--oracle", "burnside",
        ]

    def run_block(self, calls, tracer=None):
        wall = 0.0
        items = []
        for kind, count, cli_seed in calls:
            key = "%s:%d" % (kind, cli_seed)
            on_line = None
            if tracer is not None:
                def on_line(n, key=key):
                    tracer.item = "%s/row%d" % (key, n - 1)
            code, out, err, seconds = _run_cli(self.cli, self.argv(kind, count, cli_seed), on_line)
            wall += seconds
            # the reference holds no error or disagree cell (record_reference
            # refuses such output), so equality with it covers those checks
            expected = self.expected[key].split("\n")
            call_ok = code == 0 and out.lines[:1] == expected[:1]
            if not call_ok:
                _log("span-scan %s: exit %r %s" % (key, code, err.strip()))
            for row in range(1, count + 1):
                if row < len(out.lines):
                    line = out.lines[row]
                    took = out.times[row] - out.times[row - 1]
                else:
                    line, took = None, 0.0
                ok = call_ok and line == expected[row]
                if not ok:
                    _log("span-scan %s row %d: got %r, expected %r" % (key, row - 1, line, expected[row]))
                simple = expected[row].split(",")[3]
                items.append(Item(took, ok, {"nonsimple"} if simple == "false" else set()))
        return BlockResult(wall, items)


class Intertwiner:
    """Pair-scalar and intertwiner checks on seeded simple instances.

    A block holds D4 instances of dimension 4 and D5 of dimension 5 over Q,
    each checked with q_oracle == q_from_spec on every index pair and
    hom_space_dim(rep, rescale_basis(rep, palindromic diag)) == 1, and one
    root-separation pair over Q(zeta_5), checked with intertwiner dimension
    1 against itself and 0 against its twin.
    """

    name = "intertwiner"
    D4, D5 = 4, 10

    def __init__(self, modules, seed):
        self.m = modules
        self.seed = seed

    def _simple_spec(self, d, rng):
        samplers, classify = self.m["samplers"], self.m["classify"]
        while True:
            spec = samplers.random_classified_spec(d, rng)
            if classify.is_simple(spec).simple:
                return spec

    def _root_pair(self, rng):
        fields, reps = self.m["fields"], self.m["reps"]
        classify, small = self.m["classify"], self.m["samplers"].small_fraction
        field = fields.cyclotomic_field(5)
        while True:
            lams = [field.const(small(rng)) for _ in range(4)]
            g = field.const(small(rng))
            l5 = g ** 5 / (lams[0] * lams[1] * lams[2] * lams[3])
            spec1 = reps.RepSpec(reps.CLASSIFIED, lams + [l5], root_param=g)
            spec2 = reps.RepSpec(reps.CLASSIFIED, lams + [l5], root_param=field.gen * g)
            if classify.is_simple(spec1).simple and classify.is_simple(spec2).simple:
                return spec1, spec2

    def block(self, index):
        rng = random.Random("%s/%d/%d" % (self.name, self.seed, index))
        small = self.m["samplers"].small_fraction
        items = [("numberfield",) + self._root_pair(rng)]
        for d in [4] * self.D4 + [5] * self.D5:
            spec = self._simple_spec(d, rng)
            half = [spec.field.const(small(rng)) for _ in range((d + 1) // 2)]
            items.append(("rational", spec, half + half[: d // 2][::-1]))
        return items

    def _check(self, item):
        classify, reps = self.m["classify"], self.m["reps"]
        if item[0] == "numberfield":
            rep1 = reps.build_rep(item[1])
            rep2 = reps.build_rep(item[2])
            return (
                classify.hom_space_dim(rep1, rep1) == 1
                and classify.hom_space_dim(rep1, rep2) == 0
            )
        spec, diag = item[1], item[2]
        rep = reps.build_rep(spec)
        same_q = all(
            classify.q_oracle(rep, r, s) == classify.q_from_spec(spec, r, s)
            for r, s in combinations(range(1, spec.dim + 1), 2)
        )
        return same_q and classify.hom_space_dim(rep, reps.rescale_basis(rep, diag)) == 1

    def run_block(self, block, tracer=None):
        items = []
        for index, item in enumerate(block):
            if tracer is not None:
                tracer.item = "item%d" % index
            start = perf_counter()
            try:
                ok = self._check(item)
            except Exception as exc:  # a crash is a failed item
                _log("intertwiner item %d: %s: %s" % (index, type(exc).__name__, exc))
                ok = False
            took = perf_counter() - start
            if not ok:
                _log("intertwiner item %d (%s) failed its check" % (index, item[0]))
            items.append(Item(took, ok, {item[0]}))
        return BlockResult(sum(i.seconds for i in items), items)


class DimsSeries:
    """`braidrep dims` on both series; one item is a pass over both.

    The exceptional catalog mismatch (criterion 07) is the expected output:
    the pattern below is frozen in tests/test_dims.py.
    """

    name = "dims-series"
    EXPECTED = {
        "exceptional": (2, {
            "adjoint": False, "alternating_complement": True,
            "symmetric": False, "symmetric_dual": False,
        }),
        "bcd": (0, {"alternating": True, "symmetric_traceless": True}),
    }

    def __init__(self, modules, seed):
        self.cli = modules["cli"]
        self.seed = seed

    def block(self, index):
        rng = random.Random("%s/%d/%d" % (self.name, self.seed, index))
        return rng.sample(sorted(self.EXPECTED), 2)

    def _check(self, series, code, text):
        want_code, want_equal = self.EXPECTED[series]
        if code != want_code:
            return False
        try:
            payload = json.loads(text)
            equal = {item["summand"]: item["equal"] for item in payload}
            conventions = [item["convention"] for item in payload]
        except (ValueError, KeyError, TypeError):
            return False
        if equal != want_equal:
            return False
        if series == "exceptional":
            return all(c == {"gamma": "u^4", "sign_flip": False} for c in conventions)
        return True

    def run_block(self, order, tracer=None):
        if tracer is not None:
            tracer.item = "pass"
        wall, ok = 0.0, True
        for series in order:
            argv = ["dims", "--series", series, "--format", "json"]
            code, out, err, seconds = _run_cli(self.cli, argv)
            wall += seconds
            if not self._check(series, code, "\n".join(out.lines)):
                _log("dims %s: exit %r, unexpected output %s" % (series, code, err.strip()))
                ok = False
        return BlockResult(wall, [Item(wall, ok, set())])


WORKLOADS = {w.name: w for w in (SpanScan, Intertwiner, DimsSeries)}
