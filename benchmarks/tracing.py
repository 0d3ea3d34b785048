"""Span tracing of lgforge from the outside, for the benchmark's traced runs.

``Tracer.install`` replaces each traced function by a wrapper at every
module-level binding of it in the loaded ``lgforge`` modules (found by
identity, so ``laurent_divide`` is wrapped in ``lgforge``, ``lgforge.laurent``
and ``lgforge.mutation`` alike), and on the ``LaurentPolynomial`` class for
its methods.  Each call records a span: name, layer, operation, start, end,
parent span and item id.  Spans stay in memory; ``restore`` puts the
original functions back.  Nothing inside the library is changed.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

WRAPPED_MARK = "__lgbench_original__"
PACKAGE = "lgforge"

# (layer, op, module, function or "Class.method"); modules are lgforge
# submodules, and a name missing from its module is skipped, so the table
# survives refactors that remove a function.
NAMED_TARGETS = (
    ("parsing", "parse", "parsing", "parse"),
    ("laurent.mul", "mul", "laurent", "LaurentPolynomial.__mul__"),
    ("laurent.mul", "mul", "laurent", "LaurentPolynomial.__rmul__"),
    ("laurent.mul", "pow", "laurent", "LaurentPolynomial.__pow__"),
    ("laurent.divide", "divide", "laurent", "laurent_divide"),
    ("period", "period", "period", "period_coefficients"),
    ("period", "compare", "period", "period_equal_up_to_shift"),
    ("period", "compare", "period", "first_period_mismatch"),
    ("mutation", "mutate", "mutation", "mutate"),
    ("mutation", "mutate", "mutation", "invert_mutation"),
    ("mutation.chain", "chain", "mutation", "run_chain"),
    ("mutation.chain", "chain", "mutation", "verify_chain"),
    ("geometry.hull", "hull", "laurent", "LaurentPolynomial.newton_polytope"),
    ("geometry.hull", "hull", "geometry", "convex_hull"),
    ("geometry.hull", "vertex_enum", "geometry", "vertices_of_inequalities"),
    ("catalog", "verify", "catalog", "verify_entry"),
    ("catalog", "load", "catalog", "load_catalog"),
)

# Every public function defined in these modules is traced as one layer.
MODULE_TARGETS = (
    ("intlinalg", "intlinalg", "intlinalg"),
    ("toric", "toric", "toric"),
    ("degeneration", "degeneration", "degeneration"),
)

LAYERS = (
    "parsing",
    "laurent.mul",
    "laurent.divide",
    "period",
    "mutation",
    "mutation.chain",
    "geometry.hull",
    "intlinalg",
    "toric",
    "degeneration",
    "catalog",
)

# span record fields
NAME, LAYER, OP, START, END, PARENT, ITEM, INFO = range(8)

HULL_BUCKETS = ((0, 8), (9, 16), (17, 32), (33, 64), (65, None))


def _sized_len(value):
    try:
        return len(value)
    except TypeError:
        return None


def _measure_mul(args, result):
    """(term pairs, result terms); a scalar factor counts as one term."""
    a, b = args
    return (len(a.terms) * (len(b.terms) if type(b) is type(a) else 1), len(result.terms))


def _measure_divide(args, result):
    return result is not None


def _measure_newton(args, result):
    return (len(args[0].terms), len(result.vertices), args[0].rank)


def _measure_hull(args, result):
    rank = len(result.vertices[0]) if result.vertices else None
    return (_sized_len(args[0]), len(result.vertices), rank)


def _measure_monoid(args, result):
    return len(result.tuples)


MEASURES = {
    "LaurentPolynomial.__mul__": _measure_mul,
    "LaurentPolynomial.__rmul__": _measure_mul,
    "laurent_divide": _measure_divide,
    "LaurentPolynomial.newton_polytope": _measure_newton,
    "convex_hull": _measure_hull,
    "relation_monoid": _measure_monoid,
}

RAISED = "raised"


class Tracer:
    """Records spans of traced lgforge calls; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.item = "setup"
        self._stack = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, name, layer, op):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, layer, op, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                rec[END] = clock()
                stack.pop()
                rec[INFO] = (RAISED, type(err).__name__)
                raise
            rec[END] = clock()
            stack.pop()
            if measure is not None:
                rec[INFO] = measure(args, result)
            return result

        setattr(traced, WRAPPED_MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @staticmethod
    def _targets():
        """(layer, op, name, original, owner class or None) for every target."""
        out = []
        for layer, op, modname, qual in NAMED_TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            if module is None:
                continue
            if "." in qual:
                cls_name, attr = qual.split(".", 1)
                cls = getattr(module, cls_name, None)
                if cls is not None and attr in cls.__dict__:
                    out.append((layer, op, qual, cls.__dict__[attr], cls))
            elif inspect.isfunction(getattr(module, qual, None)):
                out.append((layer, op, qual, getattr(module, qual), None))
        for layer, op, modname in MODULE_TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    out.append((layer, op, name, obj, None))
        return out

    def install(self):
        """Wrap every target at every module binding and class attribute."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for _, m in _package_modules()]
        wrappers = {}
        for layer, op, name, original, cls in self._targets():
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self._wrapper(original, name, layer, op)
            wrapper = wrappers[key]
            if cls is not None:
                attr = name.split(".", 1)[1]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)
        return len(self._patches)

    def restore(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis ------------------------------------------------------------------


def _package_modules():
    """(name, module) of every loaded module of the traced package, sorted."""
    return [
        (n, m) for n, m in sorted(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]


def leftover_wrappers():
    """Bindings in the loaded package that still hold a tracing wrapper."""
    found = []
    for name, module in _package_modules():
        for binding, value in vars(module).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{name}.{binding}")
            elif inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPED_MARK):
                        found.append(f"{name}.{binding}.{attr}")
    return found


def self_times(spans):
    """Per-span self time: its duration minus the durations of its children.

    Spans nest strictly (one thread, stack discipline), so children never
    overlap and the subtraction is exact.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[i] for i, rec in enumerate(spans)]


def nesting_errors(spans, intervals):
    """Ways in which the spans fail to form one well-nested tree per item.

    A child must lie within its parent and share its item; a top-level span
    of an item must lie within that item's timed interval (``intervals``
    maps item ids to (start, end)); no self time may be negative.  Spans of
    items without an interval (set-up, harness) are checked for nesting only.
    """
    errors = []
    for i, rec in enumerate(spans):
        start, end, parent = rec[START], rec[END], rec[PARENT]
        if end < start:
            errors.append(f"span {i} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (parent < i and p[START] <= start and end <= p[END]):
                errors.append(f"span {i} is not within its parent {parent}")
            if p[ITEM] != rec[ITEM]:
                errors.append(f"span {i} has item {rec[ITEM]!r}, its parent {p[ITEM]!r}")
        elif rec[ITEM] in intervals:
            lo, hi = intervals[rec[ITEM]]
            if not (lo <= start and end <= hi):
                errors.append(f"span {i} lies outside item {rec[ITEM]!r}")
    errors.extend(  # rounding of the subtraction leaves |t| below a nanosecond
        f"span {i} has negative self time {t}"
        for i, t in enumerate(self_times(spans)) if t < -1e-9
    )
    return errors


def _entries(spans, indices, op):
    """Spans of an op that are not nested directly in a span of the same op."""
    return [
        i for i in indices
        if spans[i][OP] == op and (spans[i][PARENT] < 0 or spans[spans[i][PARENT]][OP] != op)
    ]


def layer_metrics(spans, indices):
    """Per-layer counts, self seconds and ratios over the spans at ``indices``."""
    selfs = self_times(spans)
    by_layer = {layer: [] for layer in LAYERS}
    for i in indices:
        by_layer.setdefault(spans[i][LAYER], []).append(i)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[i] for i in by_layer[layer])

    def calls(op):
        return len(_entries(spans, indices, op))

    m["parsing.calls"] = calls("parse")
    m["laurent.mul.calls"] = sum(1 for i in by_layer["laurent.mul"] if spans[i][OP] == "mul")
    muls = [
        i for i in by_layer["laurent.mul"] if spans[i][OP] == "mul" and not _raised(spans[i])
    ]
    m["laurent.mul.term_pairs"] = sum(spans[i][INFO][0] for i in muls)
    m["laurent.mul.peak_terms"] = max((spans[i][INFO][1] for i in muls), default=0)
    divs = [i for i in by_layer["laurent.divide"] if spans[i][OP] == "divide"]
    m["laurent.divide.calls"] = len(divs)
    m["laurent.divide.quotient_ratio"] = (
        sum(1 for i in divs if spans[i][INFO] is True) / len(divs) if divs else 0.0
    )
    m["period.calls"] = calls("period")
    m["period.compare.calls"] = calls("compare")
    mutates = [i for i in by_layer["mutation"] if spans[i][OP] == "mutate"]
    m["mutation.calls"] = len(mutates)
    m["mutation.mutable_ratio"] = (
        sum(1 for i in mutates if not _raised(spans[i])) / len(mutates) if mutates else 0.0
    )
    m["mutation.chain.calls"] = calls("chain")
    hulls = _entries(spans, indices, "hull")
    m["geometry.hull.calls"] = len(hulls)
    m["geometry.hull.points_in"] = sum(_hull_io(spans, i)[0] for i in hulls)
    m["geometry.hull.vertices_out"] = sum(_hull_io(spans, i)[1] for i in hulls)
    m["intlinalg.calls"] = calls("intlinalg")
    m["toric.calls"] = calls("toric")
    m["toric.relation_monoid.tuples"] = sum(
        spans[i][INFO] for i in by_layer["toric"]
        if spans[i][NAME] == "relation_monoid" and not _raised(spans[i])
    )
    m["degeneration.calls"] = calls("degeneration")
    m["catalog.calls"] = calls("verify")
    return m


def _raised(rec):
    return isinstance(rec[INFO], tuple) and rec[INFO][:1] == (RAISED,)


def _hull_io(spans, i):
    """(points in, vertices out, rank) of a hull span."""
    info = spans[i][INFO]
    if not isinstance(info, tuple) or _raised(spans[i]):
        return (0, 0, None)
    return (info[0] or 0, info[1], info[2])


def hull_buckets(spans, indices):
    """Hull calls, self and inclusive seconds by rank and input point count."""
    selfs = self_times(spans)
    hulls = _entries(spans, indices, "hull")
    # self time of the hull layer under each outermost hull span
    under = {i: 0.0 for i in hulls}
    owner = {}
    for i in sorted(indices):
        parent = spans[i][PARENT]
        if i in under:
            owner[i] = i
        elif parent in owner:
            owner[i] = owner[parent]
        if i in owner and spans[i][LAYER] == "geometry.hull":
            under[owner[i]] += selfs[i]
    groups = {}
    for i in hulls:
        points, _, rank = _hull_io(spans, i)
        lo, hi = next(b for b in HULL_BUCKETS if points >= b[0] and (b[1] is None or points <= b[1]))
        groups.setdefault((rank or 0, lo, hi), []).append(i)
    out = []
    for (rank, lo, hi), sel in sorted(groups.items(), key=lambda kv: kv[0][:2]):
        out.append({
            "rank": rank,
            "points": f"{lo}-{hi}" if hi is not None else f"{lo}+",
            "calls": len(sel),
            "self_s": sum(under[i] for i in sel),
            "total_s": sum(spans[i][END] - spans[i][START] for i in sel),
        })
    return out


def top_level_seconds(spans, indices):
    """Seconds covered by spans with no traced parent."""
    return sum(spans[i][END] - spans[i][START] for i in indices if spans[i][PARENT] < 0)


def write_spans(spans, fh):
    """Write spans to a text file as JSON lines, one object per span."""
    for i, rec in enumerate(spans):
        fh.write(json.dumps({
            "id": i, "name": rec[NAME], "layer": rec[LAYER], "op": rec[OP],
            "start": rec[START], "end": rec[END], "parent": rec[PARENT],
            "item": rec[ITEM],
            "info": list(rec[INFO]) if isinstance(rec[INFO], tuple) else rec[INFO],
        }) + "\n")
