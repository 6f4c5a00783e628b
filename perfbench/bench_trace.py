"""Span recorder for the traced run, wrapped around purebetti from outside.

Each layer boundary is a named public function (or method) of the
package.  `install` replaces it, under every module name it is bound to,
with a wrapper that records a span: name, start, end, parent span and op
id.  Spans live in flat arrays until `write` dumps them at the end; the
per-layer metrics are derived from the same arrays.  Self time is a
span's duration minus the durations of its direct child spans.  The
package is single-threaded and never waits on a queue or lock, so no
wait time is recorded.
"""

import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (span name, module, attribute); "Class.method" names a method.
SPANS = [
    ("laurent.mul", "purebetti.laurent", "LaurentPoly.__mul__"),
    ("laurent.div", "purebetti.laurent", "_quo_or_none"),
    ("laurent.gcd", "purebetti.laurent", "gcd"),
    ("laurent.det", "purebetti.laurent", "det"),
    ("schur.bialternant", "purebetti.schur", "schur_bialternant"),
    ("schur.gcd_family", "purebetti.schur", "schur_gcd_family"),
    ("betti.equivariant", "purebetti.betti", "equivariant_diagram"),
    ("betti.minors", "purebetti.betti", "_equivariant_minors"),
    ("betti.check_hk", "purebetti.betti", "check_hk"),
    ("betti.hilbert", "purebetti.betti", "hilbert_numerator"),
    ("betti.json", "purebetti.betti", "BettiDiagram.from_json"),
    ("betti.json", "purebetti.betti", "BettiDiagram.to_json"),
    ("hkspace.canonical_generator", "purebetti.hkspace", "canonical_generator"),
    ("hkspace.membership", "purebetti.hkspace", "membership"),
    ("hkspace.decompose", "purebetti.hkspace", "decompose"),
    ("hkspace.peel", "purebetti.hkspace", "_peel_cofactor"),
    ("hkspace.descend", "purebetti.hkspace", "_descend"),
    ("hkspace.component_gcd", "purebetti.hkspace", "component_gcd"),
    ("hkspace.find_generator", "purebetti.hkspace", "find_generator"),
    ("cli.main", "purebetti.cli", "main"),
]

# Counted but not timed: a reduction step nests a whole descent in one
# variable fewer, so a span here would only move time out of descend.
COUNTERS = [("hkspace.reduce.steps", "purebetti.hkspace", "_reduce")]

# Every per-layer metric, with its unit, in report order.
METRICS = {
    "laurent.mul.calls": "count", "laurent.mul.self_s": "s",
    "laurent.mul.term_products": "count",
    "laurent.div.calls": "count", "laurent.div.self_s": "s",
    "laurent.div.dividend_terms": "count", "laurent.div.useful_ratio": "ratio",
    "laurent.gcd.calls": "count", "laurent.gcd.self_s": "s",
    "laurent.det.calls": "count", "laurent.det.self_s": "s",
    "schur.bialternant.calls": "count", "schur.bialternant.self_s": "s",
    "schur.gcd_family.self_s": "s",
    "betti.equivariant.self_s": "s", "betti.minors.self_s": "s",
    "betti.check_hk.calls": "count", "betti.check_hk.self_s": "s",
    "betti.hilbert.self_s": "s", "betti.json.self_s": "s",
    "hkspace.canonical_generator.calls": "count",
    "hkspace.canonical_generator.self_s": "s",
    "hkspace.canonical_generator.distinct_ratio": "ratio",
    "hkspace.membership.self_s": "s",
    "hkspace.decompose.calls": "count", "hkspace.decompose.self_s": "s",
    "hkspace.peel.self_s": "s",
    "hkspace.reduce.steps": "count",
    "hkspace.descend.self_s": "s", "hkspace.component_gcd.self_s": "s",
    "hkspace.find_generator.self_s": "s",
    "cli.main.calls": "count", "cli.main.self_s": "s",
}

SKIPPED = -1  # name id of a span whose call returned NotImplemented


class Recorder:
    def __init__(self):
        self.names = ["op"]
        self.name = array("h")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.counts = {}
        self.generator_keys = set()

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin_op(self, op_id):
        """Open the root span of one op; returns its index."""
        self.op_id = op_id
        return self._open(0)

    def end_op(self, index):
        self.end[index] = perf_counter()
        self.current = -1

    def _open(self, nid):
        index = len(self.start)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(self.current)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.current = index
        return index

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, after=None):
        nid = self.name_id(name)
        opened = self._open
        end = self.end
        skip = self.name

        def wrapper(*args, **kwargs):
            parent = self.current
            index = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                self.current = parent
            if result is NotImplemented:
                skip[index] = SKIPPED
            elif after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- derived metrics -------------------------------------------------

    def layer_times(self):
        """name -> (calls, self seconds) over every recorded span."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {}
        for i in range(n):
            nid = self.name[i]
            if nid == SKIPPED:
                continue
            calls, busy = totals.get(self.names[nid], (0, 0.0))
            totals[self.names[nid]] = (
                calls + 1, busy + (self.end[i] - self.start[i]) - child[i])
        return totals

    def metrics(self):
        totals = self.layer_times()
        values = {}
        for name in METRICS:
            layer, _, what = name.rpartition(".")
            calls, busy = totals.get(layer, (0, 0.0))
            if what == "calls":
                values[name] = calls
            elif what == "self_s":
                values[name] = busy
            else:
                values[name] = self.counts.get(name, 0)
        div_calls = totals.get("laurent.div", (0, 0.0))[0]
        values["laurent.div.useful_ratio"] = (
            self.counts.get("laurent.div.quotients", 0) / div_calls if div_calls else 0.0)
        gen_calls = totals.get("hkspace.canonical_generator", (0, 0.0))[0]
        values["hkspace.canonical_generator.distinct_ratio"] = (
            len(self.generator_keys) / gen_calls if gen_calls else 0.0)
        return {name: {"value": values[name], "unit": METRICS[name]} for name in METRICS}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,op,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                nid = self.name[i]
                name = self.names[nid] if nid != SKIPPED else "skipped"
                out.write(f"{name},{self.op[i]},{self.parent[i]},"
                          f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


def _after_mul(rec, args, result):
    left, right = args
    rec.count("laurent.mul.term_products",
              len(left.terms) * (1 if isinstance(right, (int, Fraction)) else len(right.terms)))


def _after_div(rec, args, result):
    rec.count("laurent.div.dividend_terms", len(args[0].terms))
    if result is not None:
        rec.count("laurent.div.quotients")


def _after_generator(rec, args, result):
    rec.generator_keys.add(tuple(args[0]))


AFTER = {"laurent.mul": _after_mul, "laurent.div": _after_div,
         "hkspace.canonical_generator": _after_generator}


def _rebind(original, replacement, undo):
    """Point every purebetti module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "purebetti" or name.startswith("purebetti."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append((module, attr, original))


def install(rec):
    """Wrap every layer boundary of the imported package with `rec`.

    Returns a function that puts the original functions back.
    """
    undo = []
    for name, module_name, attr in SPANS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(rec.span(name, raw.__func__, AFTER.get(name)))
            else:
                wrapped = rec.span(name, raw, AFTER.get(name))
            setattr(cls, method, wrapped)
            undo.append((cls, method, raw))
        else:
            original = getattr(module, attr)
            _rebind(original, rec.span(name, original, AFTER.get(name)), undo)
    for name, module_name, attr in COUNTERS:
        original = getattr(sys.modules[module_name], attr)
        _rebind(original, rec.counter(name, original), undo)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
