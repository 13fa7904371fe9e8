"""Spans and counters around braidrep's public calls, installed from outside.

The library carries no instrumentation of its own, so the traced run patches
the public functions and methods named in TRACED: every module attribute,
class attribute and module-level dict value bound to the original object is
replaced by a wrapper that records a span.  Scalar arithmetic is counted per
backend without spans, because it runs millions of times per block; the
counters are installed only on request, since they cost more than the spans.
uninstall() puts every original back.

A span is [name, start, end, parent index, item id]; spans stay in memory
and are written out once, at the end of the run.  Self time is a span's
duration minus the durations of its direct children.
"""

import gzip
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, span name)
TRACED = (
    ("cli", "cmd_scan", "cli.scan"),
    ("cli", "cmd_dims", "cli.dims"),
    ("samplers", "random_classified_spec", "samplers"),
    ("samplers", "degenerate_classified_spec", "samplers"),
    ("samplers", "central_unit_spec", "samplers"),
    ("reps", "build_rep", "reps.build_rep"),
    ("reps", "structure_report", "reps.structure_report"),
    ("reps", "rescale_basis", "reps.rescale_basis"),
    ("classify", "is_simple", "classify.is_simple"),
    ("classify", "sl2z_flags", "classify.sl2z_flags"),
    ("classify", "burnside_oracle", "classify.burnside_oracle"),
    ("classify", "q_oracle", "classify.q_oracle"),
    ("classify", "hom_space_dim", "classify.hom_space_dim"),
    ("matrices", "SquareMatrix.__mul__", "matrices.matmul"),
    ("matrices", "UniPoly.eval_matrix", "matrices.eval_matrix"),
    ("matrices", "RowSpace.insert", "matrices.rowspace_insert"),
    ("matrices", "rref", "matrices.rref"),
    ("fields", "LaurentPolynomial.__mul__", "fields.laurent_mul"),
    ("dims", "verify_series", "dims.verify_series"),
)

# Scalar methods counted as one operation each, keyed by the field backend
COUNTED_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "inv", "__eq__",
)
BACKENDS = {
    "RationalField": "fields.rational.ops",
    "NumberField": "fields.numberfield.ops",
    "SymbolicField": "fields.symbolic.ops",
}

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))
CALL_COUNTS = (
    "classify.burnside_oracle", "matrices.matmul", "matrices.rowspace_insert",
    "matrices.rref", "fields.laurent_mul",
)


class Tracer:
    """Collects spans and counts; install() patches the given modules."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.ops = defaultdict(int)
        self.inserts_useful = 0
        self.route_terms = 0
        self.catalog_terms = 0
        self.patched = []  # (namespace, key, original): what uninstall() restores

    def install(self, modules, count_ops=False):
        """Patch braidrep with spans, and with Scalar op counters if
        count_ops; modules maps short names ('cli', ...) to modules."""
        for mod_name, attr, span_name in TRACED:
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(vars(cls), cls, meth, self._wrap(cls.__dict__[meth], span_name))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, span_name)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(vars(module), module, key, wrapper)
                        elif isinstance(value, dict):
                            # module-level dispatch tables
                            for k, v in list(value.items()):
                                if v is original:
                                    self._patch(value, None, k, wrapper)
        if count_ops:
            scalar = modules["fields"].Scalar
            for meth in COUNTED_OPS:
                self._patch(vars(scalar), scalar, meth, self._count(scalar.__dict__[meth]))

    def _patch(self, namespace, owner, key, value):
        """Bind key to value in owner (a module or class; a plain dict when
        owner is None), remembering the original."""
        self.patched.append((namespace, owner, key, namespace[key]))
        if owner is None:
            namespace[key] = value
        else:
            setattr(owner, key, value)

    def uninstall(self):
        """Restore everything install() patched."""
        while self.patched:
            namespace, owner, key, original = self.patched.pop()
            if owner is None:
                namespace[key] = original
            else:
                setattr(owner, key, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        after = {
            "matrices.rowspace_insert": self._note_insert,
            "dims.verify_series": self._note_terms,
        }.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, fn):
        ops = self.ops

        def counted(scalar, *args):
            ops[scalar.field.__class__.__name__] += 1
            return fn(scalar, *args)

        return counted

    def _note_insert(self, accepted):
        self.inserts_useful += bool(accepted)

    def _note_terms(self, reports):
        # a route or catalog value is a (numerator, denominator) pair of
        # Laurent polynomials; the numerator carries the size that matters
        for report in reports:
            self.route_terms = max(self.route_terms, len(report.route_a.value[0].terms))
            self.catalog_terms = max(self.catalog_terms, len(report.route_b.value[0].terms))

    def mark(self):
        """Snapshot to pass to layer_metrics(); taken at a block boundary."""
        return (len(self.spans), dict(self.ops), self.inserts_useful)

    def layer_metrics(self, begin, end):
        """Per-layer metrics of the spans and counts between two marks."""
        span_lo, ops_lo, useful_lo = begin
        span_hi, ops_hi, useful_hi = end
        spans = self.spans[span_lo:span_hi]
        self_time = [rec[2] - rec[1] for rec in spans]
        for rec in spans:
            parent = rec[3] - span_lo
            if parent >= 0:
                self_time[parent] -= rec[2] - rec[1]
        seconds = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for rec, own in zip(spans, self_time):
            seconds[rec[0]] += own
            calls[rec[0]] += 1
        out = {name + ".s": (seconds[name], "s") for name in SPAN_NAMES}
        for name in CALL_COUNTS:
            out[name + ".calls"] = (calls[name], "count")
        inserts = calls["matrices.rowspace_insert"]
        useful = useful_hi - useful_lo
        out["matrices.rowspace_insert.useful_ratio"] = (
            useful / inserts if inserts else 0.0, "ratio",
        )
        for cls_name, metric in BACKENDS.items():
            out[metric] = (ops_hi.get(cls_name, 0) - ops_lo.get(cls_name, 0), "count")
        out["dims.route_max_terms"] = (self.route_terms, "count")
        out["dims.catalog_max_terms"] = (self.catalog_terms, "count")
        return out

    def write(self, path, origin):
        """Write every span as one JSON line, times relative to origin."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "item": item,
                }) + "\n")

