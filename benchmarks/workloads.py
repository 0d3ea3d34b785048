"""The four benchmark workloads: seeded inputs, the timed call, exact checks.

Every workload builds its items in ``setup`` from the seed alone, using only
names exported by ``lgforge`` (passed in as ``lg``) and methods of the
exported classes.  ``run`` is the timed call for one item; ``check``
compares its output exactly with the expectation fixed in set-up, outside
the timed region; ``corrupt`` returns a deliberately wrong output, which
the harness self-checks feed back to ``check``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

CATALOG_ORDER = 14
BOX = 2  # exponent box of random primitive vectors
MUTATION_TRIES = 400


@dataclasses.dataclass(frozen=True)
class Item:
    id: str
    kind: str
    args: tuple
    expected: object
    info: dict  # sizes for the run record: rank, terms, points, order
    timed: bool = True  # counts towards item_p50_ms and item_tail_ms


def digest(items):
    """Stable digest of the generated inputs and their expectations."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr((item.id, item.kind, _canon(item.args), _canon(item.expected))).encode())
    return h.hexdigest()


def _canon(value):
    if hasattr(value, "render") and hasattr(value, "terms"):
        return ("poly", value.rank, getattr(value, "param_rank", None), value.render())
    if isinstance(value, (tuple, list)):
        return tuple(_canon(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _canon(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canon(v)) for k, v in value.items()))
    return repr(value)


# -- shared generators ---------------------------------------------------------


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return g == 1


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def random_primitive(rng, rank):
    while True:
        v = tuple(rng.randint(-BOX, BOX) for _ in range(rank))
        if _primitive(v):
            return v


_ORTHOGONAL = {}


def random_orthogonal(rng, w):
    """A random primitive u in [-BOX, BOX]^n with <w, u> = 0, or None."""
    key = tuple(w)
    if key not in _ORTHOGONAL:
        _ORTHOGONAL[key] = [
            u for u in product(range(-BOX, BOX + 1), repeat=len(w))
            if _primitive(u) and _dot(w, u) == 0
        ]
    options = _ORTHOGONAL[key]
    return rng.choice(options) if options else None


def random_unimodular(rng, rank):
    """Product of rank+1 random elementary matrices and a signed permutation."""
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(rank + 1):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(rank)]
    return [[s * x for x in m[p]] for s, p in zip(signs, perm)]


def binomial_factor(lg, u, coeff=1):
    rank = len(u)
    return lg.LaurentPolynomial.from_terms(rank, 0, {(0,) * rank: 1, tuple(u): coeff})


def random_mutations(lg, rng, f, steps, max_terms):
    """Up to ``steps`` valid mutations of f with factor 1+x^u, by bounded search.

    Candidates (w, u) are drawn at random; a candidate counts when ``mutate``
    accepts it, the result is new and has at most ``max_terms`` terms.
    """
    done = []
    for _ in range(steps):
        for _ in range(MUTATION_TRIES):
            w = random_primitive(rng, f.rank)
            u = random_orthogonal(rng, w)
            if u is None or not _may_mutate(f, w):
                continue
            data = lg.MutationData(w, binomial_factor(lg, u))
            try:
                g = lg.mutate(f, data)
            except lg.NotMutableError:
                continue
            if g != f and len(g) <= max_terms:
                f = g
                done.append((w, u))
                break
    return f, done


def _may_mutate(f, w):
    """Necessary condition: no negative graded piece is a single term."""
    count = {}
    for e in f.terms:
        k = _dot(w, e)
        if k < 0:
            count[k] = count.get(k, 0) + 1
    return all(n > 1 for n in count.values())


def toric_fans(lg, entries):
    """(entry id, fan) for every toric_oracle check in the catalog."""
    out = []
    for entry in entries:
        for check in entry.checks:
            if check.kind == "toric_oracle":
                rays = tuple(tuple(r) for r in check.payload["rays"])
                out.append((entry.id, lg.FanData(rank=len(rays[0]), rays=rays)))
    return out


def scalar_period(series):
    """Regularized period with every parameter set to 1, computed here."""
    out = []
    for c in series.coefficients:
        terms = getattr(c, "terms", None)
        out.append(sum(terms.values()) if terms is not None else c)
    return tuple(out)


def poly_info(f, **extra):
    return {"rank": f.rank, "terms": len(f), **extra}


# -- catalog ---------------------------------------------------------------------


class Catalog:
    """``catalog verify --n 14`` with one worker: every entry, in seeded order.

    Half the entries declare no checks, so verifying them is a no-op; the
    latency figures cover only the entries with checks, while every entry
    runs in each pass.
    """

    name = "catalog"

    def setup(self, lg, seed):
        entries = lg.load_catalog()
        items = [
            Item(e.id, "entry", (e,), [c.kind for c in e.checks],
                 {"rank": e.rank, "checks": len(e.checks), "order": CATALOG_ORDER},
                 timed=bool(e.checks))
            for e in entries
        ]
        random.Random(seed).shuffle(items)
        return {"entries": entries, "items": items}

    def run(self, lg, state, item):
        return lg.verify_entry(item.args[0], CATALOG_ORDER, state["entries"])

    def check(self, item, out):
        return (
            out.entry_id == item.id
            and [c.kind for c in out.checks] == item.expected
            and all(c.ok for c in out.checks)
            and out.ok is True
        )

    def corrupt(self, item, out):
        if out.checks:
            bad = dataclasses.replace(out.checks[0], ok=False)
            return dataclasses.replace(out, checks=[bad] + list(out.checks[1:]))
        return dataclasses.replace(out, entry_id=out.entry_id + "?")


# -- periods ---------------------------------------------------------------------


# Term-count bands of the mutated models, one model per band and fan, and
# the period order for each band by rank: deep enough that powering
# dominates, shallow enough that no item takes seconds.  Pairs compared up
# to shift come from the first band; the pair models use PAIR_ORDER.
TERM_BANDS = ((5, 9), (10, 16), (17, 24))
BAND_ORDERS = {2: (14, 12, 11), 3: (10, 9, 8)}
PAIR_ORDER = {2: 12, 3: 10}
BAND_TRIES = 6


class Periods:
    """Deep period sequences of mutated toric mirrors, checked by the monoid oracle.

    The mutations, and the monomials a negative control adds, come from a
    stream that does not depend on the seed; the seed draws a unimodular map
    for every polynomial, the shift constants and the control coefficients.
    Maps preserve the sizes of all powers, so a seed changes every input but
    not the work a pass does, as the structure workload's sizes do not.
    """

    name = "periods"

    def setup(self, lg, seed):
        rng = random.Random(seed)
        shapes = random.Random("periods")
        fans = toric_fans(lg, lg.load_catalog())
        oracle_cache = {}

        def oracle(fan, cg, order):
            key = (fan.rays, order)
            if key not in oracle_cache:
                oracle_cache[key] = lg.toric_quantum_period(fan, cg, order)
            return oracle_cache[key]

        def mutated(fan, band):
            """1-3 mutations of the ray sum, aiming at a term count in band (unmapped)."""
            lo, hi = band
            best = None
            for _ in range(BAND_TRIES):
                f, steps = lg.hori_vafa(fan), 0
                while steps < 3 and (steps == 0 or len(f) < lo):
                    f, done = random_mutations(lg, shapes, f, 1, max_terms=hi)
                    if not done:
                        break
                    steps += 1
                miss = (steps == 0, max(lo - len(f), 0))
                if best is None or miss < best[0]:
                    best = (miss, f, steps)
                if miss == (False, 0):
                    break
            _, f, steps = best
            return f, steps

        def mapped(f):
            return f.apply_monomial_map(random_unimodular(rng, f.rank))

        items = []
        for fid, fan in fans:
            cg = lg.class_group(fan)
            for k, band in enumerate(TERM_BANDS):
                f, nsteps = mutated(fan, band)
                f = mapped(f)
                order = BAND_ORDERS[fan.rank][k]
                items.append(Item(
                    f"hv-{fid}-{k}", "period", (f, order),
                    scalar_period(oracle(fan, cg, order)),
                    poly_info(f, order=order, mutations=nsteps, params=0),
                ))
            model = lg.toric_pair_model(fan, cg)
            order = PAIR_ORDER[fan.rank]
            items.append(Item(
                f"pair-{fid}", "period", (model, order),
                oracle(fan, cg, order).coefficients,
                poly_info(model, order=order, params=model.param_rank),
            ))
            # two different mutations of one model, the second plus a constant
            g1, g2 = (mapped(mutated(fan, TERM_BANDS[0])[0]) for _ in range(2))
            shift = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
            g2 = g2 + lg.LaurentPolynomial.constant(shift, fan.rank)
            order = BAND_ORDERS[fan.rank][0]
            items.append(Item(
                f"shift-{fid}", "shift", (g1, g2, order), shift,
                poly_info(g2, order=order, terms_other=len(g1)),
            ))
            # negative control: b*x^v + c*x^(-v) off the support changes c(f^2) by 2bc
            g, _ = mutated(fan, TERM_BANDS[0])
            support = set(g.terms)
            while True:
                v = random_primitive(shapes, fan.rank)
                if v not in support and tuple(-x for x in v) not in support:
                    break
            b, c = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
            h = g + lg.LaurentPolynomial.from_terms(
                fan.rank, 0, {v: b, tuple(-x for x in v): c}
            )
            m = random_unimodular(rng, fan.rank)
            g, h = g.apply_monomial_map(m), h.apply_monomial_map(m)
            order = BAND_ORDERS[fan.rank][0]
            items.append(Item(
                f"control-{fid}", "shift", (g, h, order), None,
                poly_info(h, order=order, terms_other=len(g)),
            ))
        return {"items": items}

    def run(self, lg, state, item):
        if item.kind == "period":
            f, order = item.args
            return lg.period_coefficients(f, order).coefficients
        f, g, order = item.args
        return lg.period_equal_up_to_shift(f, g, order)

    def check(self, item, out):
        if item.kind == "period":
            return tuple(out) == tuple(item.expected)
        if item.expected is None:
            return out is None
        return out is not None and out == item.expected

    def corrupt(self, item, out):
        if item.kind == "period":
            coeffs = list(out)
            coeffs[-1] = coeffs[-1] + 1
            return tuple(coeffs)
        return Fraction(0) if out is None else out + 1


# -- structure -------------------------------------------------------------------

# rank: (exponent box radius, largest |grade|, term count range) of the
# polynomial a mutable input is built from
MUTABLE_SHAPE = {2: (4, 5, (15, 30)), 3: (4, 4, (120, 250))}
HULL_SIZES = {2: (8, 16, 32, 64), 3: (8, 12, 18, 24), 4: (8, 10, 12, 14)}


def _rank_of(rows):
    """Rank over Q by fraction Gaussian elimination (independent of lgforge)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                q = m[r][col] / m[rank][col]
                m[r] = [a - q * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def hull_ok(points, vertices, dimension, system):
    """Exact check of a reported hull of ``points``.

    Every vertex is a support point; every support point satisfies every
    inequality; every inequality is tight on at least ``dimension`` vertices;
    the dimension is the affine rank of the points; and the vertices are
    exactly the support points whose tight normals have full rank.
    """
    pts = [tuple(p) for p in points]
    base = pts[0]
    if dimension != _rank_of([[a - b for a, b in zip(p, base)] for p in pts[1:]] or [[0]]):
        return False
    vset = {tuple(v) for v in vertices}
    if not vset <= set(pts) or len(vset) != len(vertices):
        return False
    for a, c in system:
        if any(_dot(a, p) < c for p in pts):
            return False
        if sum(1 for v in vset if _dot(a, v) == c) < dimension:
            return False
    n = len(base)
    for p in pts:
        tight = [a for a, c in system if _dot(a, p) == c]
        is_vertex = bool(tight) and _rank_of(tight) == n
        if is_vertex != (p in vset):
            return False
    return True


class Structure:
    """Division, graded pieces, the hull and integer linear algebra, little powering."""

    name = "structure"
    mutations_per_rank = 16

    def _mutable(self, lg, rng, rank, share):
        """f mutable by construction, its data, and its expected mutation.

        ``share`` in [0, 1] places the size of the polynomial f is built from
        within the rank's term-count range, so sizes do not depend on the seed.
        """
        while True:
            w = tuple(rng.randint(-2, 2) for _ in range(rank))
            u = random_orthogonal(rng, w) if _primitive(w) else None
            if u is not None:
                break
        factor = binomial_factor(lg, u, rng.choice((1, 2, -1, 3)))
        u2 = random_orthogonal(rng, w)
        if rank > 2 and u2 not in (u, tuple(-x for x in u)):
            factor = factor + lg.LaurentPolynomial.monomial(u2, rng.choice((1, -2)), rank)
        radius, max_grade, (lo, hi) = MUTABLE_SHAPE[rank]
        box = [
            e for e in product(range(-radius, radius + 1), repeat=rank)
            if abs(_dot(w, e)) <= max_grade
        ]
        support = rng.sample(box, min(len(box), round(lo + share * (hi - lo))))
        support.append(rng.choice([e for e in box if _dot(w, e) < 0]))
        support.append(rng.choice([e for e in box if _dot(w, e) > 0]))
        terms = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in support}
        f0 = lg.LaurentPolynomial.from_terms(rank, 0, terms)
        f = lg.LaurentPolynomial.zero(rank)
        g = lg.LaurentPolynomial.zero(rank)
        for k, piece in f0.graded_pieces(w).items():
            if k < 0:
                f, g = f + piece * factor ** (-k), g + piece
            else:
                f, g = f + piece, g + piece * factor ** k
        return f, lg.MutationData(w, factor), g

    def setup(self, lg, seed):
        rng = random.Random(seed)
        items = []
        for rank in (2, 3):
            for k in range(self.mutations_per_rank):
                share = k / (self.mutations_per_rank - 1)
                f, data, g = self._mutable(lg, rng, rank, share)
                info = poly_info(f, grades=len(f.graded_pieces(data.weight)))
                items.append(Item(f"roundtrip-r{rank}-{k}", "roundtrip", (f, data), g, info))
                # one monomial on grade -1, the last negative grade mutate reaches,
                # so every other negative piece is divided before it fails
                f, data, _ = self._mutable(lg, rng, rank, share)
                e = rng.choice([
                    e for e in product(range(-6, 7), repeat=rank)
                    if _dot(data.weight, e) == -1 and e not in f.terms
                ])
                bad = f + lg.LaurentPolynomial.monomial(e, 1, rank)
                items.append(Item(
                    f"notmutable-r{rank}-{k}", "notmutable", (bad, data), -1, poly_info(bad),
                ))
        for rank, sizes in HULL_SIZES.items():
            for npts in sizes:
                for k in range(2):
                    pts = self._points(rng, rank, npts)
                    f = lg.LaurentPolynomial.from_terms(
                        rank, 0, {p: rng.choice((-2, -1, 1, 2)) for p in pts}
                    )
                    items.append(Item(
                        f"hull-r{rank}-p{npts}-{k}", "hull", (f,), tuple(sorted(pts)),
                        {"rank": rank, "points": npts},
                    ))
        return {"items": items}

    @staticmethod
    def _points(rng, rank, npts):
        box = 1
        while (2 * box + 1) ** rank < 3 * npts:
            box += 1
        while True:
            pts = set()
            while len(pts) < npts:
                pts.add(tuple(rng.randint(-box, box) for _ in range(rank)))
            pts = sorted(pts)
            if _rank_of([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == rank:
                return pts

    def run(self, lg, state, item):
        if item.kind == "roundtrip":
            f, data = item.args
            g = lg.mutate(f, data)
            return g, lg.invert_mutation(g, data)
        if item.kind == "notmutable":
            f, data = item.args
            try:
                return ("mutated", lg.mutate(f, data))
            except lg.NotMutableError as err:
                return ("not_mutable", err.grade)
        (f,) = item.args
        data = f.newton_polytope()
        return tuple(data.vertices), data.dimension, tuple(data.hull.system)

    def check(self, item, out):
        if item.kind == "roundtrip":
            g, back = out
            return g == item.expected and back == item.args[0]
        if item.kind == "notmutable":
            return out == ("not_mutable", item.expected)
        vertices, dimension, system = out
        return hull_ok(item.expected, vertices, dimension, system)

    def corrupt(self, item, out):
        if item.kind == "roundtrip":
            g, back = out
            return g, back + 1
        if item.kind == "notmutable":
            return ("mutated", None)
        vertices, dimension, system = out
        return vertices[1:], dimension, system


# -- cli -------------------------------------------------------------------------

CLI_ROUNDS = 5
WPP_WEIGHTS = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 4), (2, 3, 5), (1, 4, 25))
LIST_PREFIXES = ("MM-2.", "MM-3.", "dP-", "V")


def _matrix_arg(m):
    return ";".join(",".join(str(x) for x in row) for row in m)


class Cli:
    """Cold-start runs of ``python -m lgforge.cli <cmd> --json``, one at a time."""

    name = "cli"

    def __init__(self, src):
        self.src = Path(src)

    def env(self):
        env = {k: v for k, v in os.environ.items() if k != "LGFORGE_CATALOG"}
        env["PYTHONPATH"] = str(self.src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def command(self, argv):
        return [sys.executable, "-m", "lgforge.cli", *argv]

    def setup(self, lg, seed):
        rng = random.Random(seed)
        entries = lg.load_catalog()
        fans = toric_fans(lg, entries)
        cheap = [
            e.id for e in entries
            if e.checks and all(c.kind == "exact_equal" for c in e.checks)
            and not any(o.id != e.id and o.id.startswith(e.id) for o in entries)
        ]
        structure = Structure()
        items = []
        for r in range(CLI_ROUNDS):
            fid, fan = rng.choice(fans)
            cg = lg.class_group(fan)
            f = lg.hori_vafa(fan).apply_monomial_map(random_unimodular(rng, fan.rank))
            f, _ = random_mutations(lg, rng, f, 1, max_terms=12)
            want = [str(c) for c in scalar_period(lg.toric_quantum_period(fan, cg, 8))]
            items.append(Item(
                f"period-{r}", "period",
                ("period", "--rank", str(fan.rank), "--n", "8", "--json", "--", f.render()),
                want, poly_info(f, order=8, fan=fid),
            ))
            rank = rng.choice((2, 3))
            f, data, g = structure._mutable(lg, rng, rank, 0.0)
            items.append(Item(
                f"mutate-{r}", "mutate",
                ("mutate", "--rank", str(rank), "--w=" + ",".join(map(str, data.weight)),
                 "--a=" + data.factor.render(), "--json", "--", f.render()),
                g.render(), poly_info(f),
            ))
            fid, fan = rng.choice(fans)
            f = (lg.hori_vafa(fan) + 1).apply_monomial_map(random_unimodular(rng, fan.rank))
            hull = f.newton_polytope()
            if not hull_ok(sorted(f.terms), hull.vertices, hull.dimension, hull.hull.system):
                raise RuntimeError(f"newton polytope of {f.render()} fails the hull oracle")
            verts = sorted(list(v) for v in hull.vertices)
            items.append(Item(
                f"newton-{r}", "newton",
                ("newton", "--rank", str(fan.rank), "--json", "--", f.render()),
                {"dimension": hull.dimension, "vertices": verts}, poly_info(f, fan=fid),
            ))
            m = random_unimodular(rng, fan.rank)
            mapped = {tuple(_dot(row, e) for row in m): c for e, c in f.terms.items()}
            items.append(Item(
                f"coords-{r}", "coords",
                ("coords", "--rank", str(fan.rank), "--matrix=" + _matrix_arg(m), "--json",
                 "--", f.render()),
                lg.LaurentPolynomial.from_terms(fan.rank, 0, mapped).render(),
                poly_info(f, fan=fid),
            ))
            weights = rng.choice(WPP_WEIGHTS)
            verts = [list(v) for v in lg.wpp_fan_polytope(*weights).vertices]
            if [sum(w * v[i] for w, v in zip(weights, verts)) for i in range(2)] != [0, 0]:
                raise RuntimeError(f"wpp vertices {verts} violate the weight relation")
            items.append(Item(
                f"wpp-{r}", "wpp",
                ("toric", "wpp", "--weights", ",".join(map(str, weights)), "--json"),
                verts, {"weights": list(weights)},
            ))
            triple = list(rng.choice(sorted(lg.markov_tree(3))))
            slot = rng.randrange(3)
            others = [triple[i] for i in range(3) if i != slot]
            want = list(triple)
            want[slot] = 3 * others[0] * others[1] - triple[slot]
            items.append(Item(
                f"markov-{r}", "markov",
                ("markov", "--triple", ",".join(map(str, triple)), "--slot", str(slot), "--json"),
                want, {"triple": triple},
            ))
            prefix = rng.choice(LIST_PREFIXES)
            items.append(Item(
                f"list-{r}", "list", ("catalog", "list", "--id", prefix, "--json"),
                [e.id for e in entries if e.id.startswith(prefix)], {"prefix": prefix},
            ))
            eid = rng.choice(cheap)
            items.append(Item(
                f"verify-{r}", "verify",
                ("catalog", "verify", "--id", eid, "--n", str(CATALOG_ORDER),
                 "--threads", "1", "--json"),
                eid, {"entry": eid},
            ))
        return {"items": items, "env": self.env()}

    def run(self, lg, state, item):
        proc = subprocess.run(
            self.command(item.args), env=state["env"], capture_output=True,
            text=True, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout

    def check(self, item, out):
        code, stdout = out
        if code != 0:
            return False
        try:
            data = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        kind, want = item.kind, item.expected
        if kind == "period":
            return data["coefficients"] == want
        if kind in ("mutate", "coords"):
            return data["result"] == want
        if kind == "newton":
            return data["dimension"] == want["dimension"] and data["vertices"] == want["vertices"]
        if kind == "wpp":
            return data["vertices"] == want
        if kind == "markov":
            return data["triple"] == want
        if kind == "list":
            return [e["id"] for e in data["entries"]] == want
        return (
            data["ok"] is True
            and [e["id"] for e in data["entries"]] == [want]
            and all(c["ok"] for e in data["entries"] for c in e["checks"])
        )

    def corrupt(self, item, out):
        code, stdout = out
        data = json.loads(stdout)
        for key in ("coefficients", "vertices", "triple", "entries"):
            if key in data and data[key]:
                data[key] = data[key][:-1]
                return code, json.dumps(data)
        if "result" in data:
            data["result"] += "+1"
        return code, json.dumps(data)


def make(name, src):
    if name == "cli":
        return Cli(src)
    return {"catalog": Catalog, "periods": Periods, "structure": Structure}[name]()


NAMES = ("catalog", "periods", "structure", "cli")
