"""Command line front end for exact braid pair work.

Subcommands: construct (build a pair, emit JSON), verify (re-check a pair
read from JSON), classify (simplicity verdict plus optional oracle and
membership flags), qpoly (print the closed pair scalars), scan (seeded
sweep, CSV), dims (compare the two dimension routes for a catalog series).

Every scalar crosses this boundary as an exact string; no floats anywhere.
Exit status: 0 all requested checks passed, 1 bad usage or input (or a
reader that closed stdout early), 2 a mathematical check came back false.
A fixed seed reproduces any sweep byte for byte.
"""

import argparse
import functools
import json
import os
import random
import re
import sys

from .classify import burnside_oracle, deligne_check, is_simple, q_scalars, sl2z_flags
from .dims import verify_series
from .fields import NumberField, RationalField, ZeroDivisorError
from .reps import (
    BINOMIAL,
    CLASSIFIED,
    RepSpec,
    build_binomial_rep,
    build_rep,
    rep_from_json,
    rep_to_json_dict,
    structure_report,
    symbolic_classified_spec,
    verify_braid,
    verify_ordered_triangular,
)
from .samplers import (
    central_unit_spec,
    degenerate_classified_spec,
    random_classified_spec,
)


OK = 0
USAGE_ERROR = 1
CHECK_FAILED = 2


class CLIError(ValueError):
    """Bad usage or input detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a lone "-..." that names no option is a value, so a negative
        # scalar such as -3/4 or -z stands as its own argument; argparse's
        # own pattern takes only decimal numbers
        self._negative_number_matcher = re.compile(r"^-[^-]")

    # argparse exits 2 on usage errors; 2 is reserved for failed
    # mathematical checks, so usage problems are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, "error: %s\n" % message)


def _plain(value):
    if value is None:
        return "-"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return str(value)


def _emit(data, fmt):
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        for key, value in data.items():
            print("%s: %s" % (key, _plain(value)))


def _eigenvalues_from_args(args):
    """(field, the parsed --eig values): the field is the --modulus number
    field when one is given, else Q; a --dim other than their count is
    refused."""
    field = NumberField.from_modulus_string(args.modulus) if args.modulus else RationalField()
    eigs = [field.parse(text) for text in args.eig]
    if args.dim is not None and args.dim != len(eigs):
        raise CLIError("--dim %d does not match %d --eig values" % (args.dim, len(eigs)))
    return field, eigs


def _spec_from_args(args):
    """Build the classified-family spec described by the parsed flags."""
    eig = args.eig or []
    if args.symbolic:
        if eig or args.modulus or args.root_d or args.root_gamma:
            raise CLIError("--symbolic takes no eigenvalue or field flags")
        if args.dim is None:
            raise CLIError("--symbolic needs --dim")
        return symbolic_classified_spec(args.dim)
    if not eig:
        raise CLIError("need --eig values (one per eigenvalue) or --symbolic")
    field, eigs = _eigenvalues_from_args(args)
    if args.root_d is not None and args.root_gamma is not None:
        raise CLIError("give at most one of --D and --gamma")
    root = None
    if args.root_d is not None:
        if len(eigs) != 4:
            raise CLIError("--D applies to dimension 4 only")
        root = field.parse(args.root_d)
    if args.root_gamma is not None:
        if len(eigs) != 5:
            raise CLIError("--gamma applies to dimension 5 only")
        root = field.parse(args.root_gamma)
    return RepSpec(CLASSIFIED, eigs, root_param=root)


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args):
    if args.family == BINOMIAL:
        if args.symbolic:
            raise CLIError("the binomial family has no symbolic build here")
        if args.root_d is not None or args.root_gamma is not None:
            raise CLIError("the binomial family takes no root parameter")
        if not args.eig:
            raise CLIError("need --eig parameter values")
        _, params = _eigenvalues_from_args(args)
        rep = build_binomial_rep(params)
    else:
        rep = build_rep(_spec_from_args(args))
    data = rep_to_json_dict(rep)
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        for key in ("family", "dim"):
            print("%s: %s" % (key, data[key]))
        if data["variables"]:
            print("variables: %s" % " ".join(data["variables"]))
        if data.get("modulus"):
            print("modulus: %s" % data["modulus"])
        print("eigenvalues: %s" % "  ".join(data["eigenvalues"]))
        print("root_param: %s" % _plain(data["root_param"]))
        for name in ("A", "B"):
            print("%s:" % name)
            for row in data[name]:
                print("  " + "\t".join(row))
    return OK


def _read_rep(args):
    if args.file:
        try:
            with open(args.file) as handle:
                text = handle.read()
        except OSError as exc:
            raise CLIError("cannot read %s: %s" % (args.file, exc.strerror or exc))
    else:
        text = sys.stdin.read()
    try:
        return rep_from_json(text)
    except ZeroDivisorError:
        raise  # a reducible modulus is bad input, reported as such
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CLIError("cannot parse representation JSON: %s" % exc)


def cmd_verify(args):
    rep = _read_rep(args)
    if args.check == "all":
        # structure_report forms the braid products once and checks them
        try:
            report = structure_report(rep)
        except ZeroDivisorError:
            raise  # a reducible modulus is bad input, not a failed check
        except (ValueError, ZeroDivisionError) as exc:
            error = str(exc)
        else:
            data = report.to_json_dict()
            data["structure_error"] = None
            _emit(data, args.format)
            return OK if report.all_ok() else CHECK_FAILED
    braid = verify_braid(rep)
    triangular = verify_ordered_triangular(rep)
    data = {"braid_ok": braid, "triangular_ok": triangular}
    ok = braid and triangular
    if args.check == "all" and braid:
        # braid holds but the pair lacks the family structure (for
        # example hand-written JSON); a failed check, not a crash
        data["structure_error"] = error
        ok = False
    _emit(data, args.format)
    return OK if ok else CHECK_FAILED


def cmd_classify(args):
    spec = _spec_from_args(args)
    report = is_simple(spec)
    if args.oracle == "burnside":
        report.burnside = burnside_oracle(build_rep(spec))
    if args.membership:
        report.sl2z, report.psl2z = sl2z_flags(spec)
    if args.certificate:
        report.deligne_certificate = deligne_check(spec)
    _emit(report.to_json_dict(), args.format)
    # a span oracle that disagrees with the classifier fails the run even
    # under --report-only; the report above shows both verdicts
    if report.burnside is not None and report.burnside != report.simple:
        return CHECK_FAILED
    if not report.simple and not args.report_only:
        return CHECK_FAILED
    return OK


def cmd_qpoly(args):
    spec = _spec_from_args(args)
    d = spec.dim
    if (args.r is None) != (args.s is None):
        raise CLIError("give both --r and --s or neither")
    if args.r is not None:
        pairs = [(args.r, args.s)]
    else:
        pairs = [(r, s) for r in range(1, d + 1) for s in range(r + 1, d + 1)]
    out = [
        {"r": r, "s": s, "q": q.render()} for (r, s), q in q_scalars(spec, pairs).items()
    ]
    if args.format == "json":
        print(json.dumps({"dim": d, "pairs": out}, indent=2))
    else:
        for item in out:
            print("Q[%d,%d] = %s" % (item["r"], item["s"], item["q"]))
    return OK


SCAN_COLUMNS = (
    "index", "eigenvalues", "root_param", "simple", "vanishing",
    "sl2z", "psl2z", "oracle", "agree",
)

_SAMPLERS = {
    "random": random_classified_spec,
    "degenerate": degenerate_classified_spec,
    "central": central_unit_spec,
}


def _scan_row(index, spec, args):
    eigs = ";".join(lam.render() for lam in spec.eigenvalues)
    root = spec.root_param.render() if spec.root_param is not None else ""
    report = is_simple(spec)
    vanishing = "|".join(label for label, _ in report.vanishing_factors)
    sl2z, psl2z = sl2z_flags(spec)
    oracle = agree = ""
    if args.oracle == "burnside":
        value = burnside_oracle(build_rep(spec))
        oracle = _plain(value)
        agree = "agree" if value == report.simple else "disagree"
    return [
        str(index), eigs, root, _plain(report.simple), vanishing,
        _plain(sl2z), _plain(psl2z), oracle, agree,
    ]


def cmd_scan(args):
    if args.count < 0:
        raise CLIError("--count must be nonnegative")
    if args.bound < 1:
        raise CLIError("--bound must be at least 1")
    if not 2 <= args.dim <= 5:
        raise CLIError("scan covers the classified family, dimensions 2..5")
    rng = random.Random(args.seed)
    sampler = _SAMPLERS[args.kind]
    print(",".join(SCAN_COLUMNS))
    ok = True
    for index in range(args.count):
        spec = sampler(args.dim, rng, bound=args.bound)
        row = _scan_row(index, spec, args)
        ok = ok and row[-1] != "disagree"
        print(",".join(row))
    return OK if ok else CHECK_FAILED


def cmd_dims(args):
    reports = verify_series(args.series)
    payload = [report.to_json_dict() for report in reports]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        convention = payload[0]["convention"]
        print("series: %s" % args.series)
        print("gamma: %s" % _plain(convention["gamma"]))
        print("sign_flip: %s" % _plain(convention["sign_flip"]))
        for item in payload:
            print("%s: equal=%s" % (item["summand"], _plain(item["equal"])))
    for report in reports:
        if not report.equal:
            print("mismatch: %s" % report.mismatch(), file=sys.stderr)
    return OK if all(item["equal"] for item in payload) else CHECK_FAILED


# subcommand name -> handler, looked up when a command runs (a handler bound
# into the cached parser would keep whatever object stood there first)
COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "classify": cmd_classify,
    "qpoly": cmd_qpoly,
    "scan": cmd_scan,
    "dims": cmd_dims,
}


# ---------------------------------------------------------------------------
# argument wiring


def _add_format(parser):
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default json)",
    )


def _add_spec_args(parser):
    parser.add_argument("--dim", type=int, help="dimension (eigenvalue count)")
    parser.add_argument(
        "--eig", action="append", metavar="SCALAR",
        help="eigenvalue as an exact scalar string; repeat once per eigenvalue",
    )
    parser.add_argument(
        "--D", dest="root_d", metavar="SCALAR",
        help="dimension-4 root parameter, square l2*l3/(l1*l4)",
    )
    parser.add_argument(
        "--gamma", dest="root_gamma", metavar="SCALAR",
        help="dimension-5 root parameter, fifth power the eigenvalue product",
    )
    parser.add_argument(
        "--modulus", metavar="POLY",
        help="monic modulus of an algebraic extension, e.g. 'z^2+1'",
    )
    parser.add_argument(
        "--symbolic", action="store_true",
        help="build over free symbolic eigenvalues instead of --eig",
    )


@functools.cache
def build_parser():
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(prog="braidrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="command", required=True)

    p = sub.add_parser("construct", help="build a braid pair and print it")
    _add_spec_args(p)
    p.add_argument(
        "--family", choices=(CLASSIFIED, BINOMIAL), default=CLASSIFIED,
        help="matrix family (default classified)",
    )
    _add_format(p)

    p = sub.add_parser("verify", help="re-check a pair read from JSON")
    p.add_argument("--file", help="JSON file (default: standard input)")
    p.add_argument(
        "--check", choices=("all", "braid"), default="all",
        help="which identity set to run (default all)",
    )
    _add_format(p)

    p = sub.add_parser("classify", help="simplicity verdict and optional flags")
    _add_spec_args(p)
    p.add_argument(
        "--oracle", choices=("burnside", "none"), default="none",
        help="independent span oracle to cross-check the verdict",
    )
    p.add_argument(
        "--membership", action="store_true",
        help="also report the modular-group membership flags",
    )
    p.add_argument(
        "--certificate", action="store_true",
        help="also run the sufficient simplicity certificate",
    )
    p.add_argument(
        "--report-only", action="store_true",
        help="always exit 0 on a clean run, even when not simple",
    )
    _add_format(p)

    p = sub.add_parser("qpoly", help="print the closed pair scalars")
    _add_spec_args(p)
    p.add_argument("--r", type=int, help="first summand index")
    p.add_argument("--s", type=int, help="second summand index")
    _add_format(p)

    p = sub.add_parser("scan", help="seeded random sweep, CSV on stdout")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, default=100, help="instances (default 100)")
    p.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    p.add_argument(
        "--bound", type=int, default=10,
        help="numerator/denominator bound for sampled rationals (default 10)",
    )
    p.add_argument(
        "--kind", choices=tuple(_SAMPLERS), default="random",
        help="sampler: generic, on the non-simple locus, or central scalar a unit",
    )
    p.add_argument(
        "--oracle", choices=("burnside", "none"), default="none",
        help="also run the span oracle per instance",
    )

    p = sub.add_parser("dims", help="two-route dimension comparison for a series")
    p.add_argument("--series", required=True, help="bcd or exceptional")
    _add_format(p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.subcommand](args)
        # flush here so a reader that closed early is seen by the handler below
        sys.stdout.flush()
        return code
    except ValueError as exc:
        # CLIError, scalar parse errors, spec violations, and library
        # input rejections all land here; internal errors stay loud
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader of stdout went away (e.g. `| head`); point stdout at
        # devnull so the interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
