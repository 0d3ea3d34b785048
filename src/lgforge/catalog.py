"""Machine-readable catalog of LG models with declarative checks.

Entries live in a versioned JSON file (see ``data/catalog.json``); the
harness here parses them, runs every declared check and reports pass/fail
with witnesses.  The catalog is data, not code: errata are fixed by
editing the file.

Schema (one entry)::

    {"id": str, "dim": int, "picard_rank": int,
     "model": str | null,            # primary polynomial, if the source states one
     "params": ["a1", ..., "ak"],    # parameter names for param_model
     "param_model": str | null,      # parametrized polynomial, optional
     "modulo_constant": bool,        # compare periods up to constant shift
     "geometric_only": bool,         # no numeric content; parse-only entry
     "checks": [ ... ]}

Check kinds: ``exact_equal``, ``period_match``, ``mutation_chain``,
``parameter_limit_edge``, ``direction_degeneration_edge``, ``toric_oracle``.
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from importlib import resources
from itertools import repeat
from pathlib import Path

from . import degeneration, mutation, period, toric
from .laurent import LaurentError, LaurentPolynomial, at_param_rank
from .parsing import assignment, parameter_index, parse, rational

DEFAULT_ORDER = 10

# the payload keys each check kind reads, in reading order: "a|b" names
# alternatives, and a trailing "?" an optional key; any other key is refused
_CHECK_KEYS = {
    "exact_equal": "left right modulo_constant?",
    "period_match": "target|target_id source? order? modulo_constant?",
    "mutation_chain": "start steps expected order? modulo_constant?",
    "parameter_limit_edge": "expect|expect_id direction? dying? subst? fibre_weight?",
    "direction_degeneration_edge": "rays d min_support max_support",
    "toric_oracle": "rays order? match_model?",
}
# payload keys that hold an expression: a string, or {"param_model_at": {...}}
_EXPRESSION_KEYS = ("left", "right", "source", "target", "start", "expected", "expect")


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class Check:
    """One declared check.  ``payload`` is its JSON form; ``args`` holds
    the payload's values converted, at load, to what the check runs on."""

    kind: str
    payload: dict
    args: dict = field(compare=False)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    dim: int
    picard_rank: int
    model: str | None = None
    params: tuple[str, ...] = ()
    param_model: str | None = None
    modulo_constant: bool = False
    geometric_only: bool = False
    checks: tuple[Check, ...] = ()
    notes: str = ""

    @property
    def rank(self) -> int:
        return self.dim

    @property
    def param_rank(self) -> int:
        return len(self.params)

    @cached_property
    def parse_model(self) -> LaurentPolynomial | None:
        """The parsed model, computed once and shared by every check."""
        if self.model is None:
            return None
        return parse(self.model, self.rank, self.param_rank)

    @cached_property
    def parse_param_model(self) -> LaurentPolynomial | None:
        """The parsed param_model, computed once and shared by every check."""
        if self.param_model is None:
            return None
        return parse(self.param_model, self.rank, self.param_rank)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "dim": self.dim,
            "picard_rank": self.picard_rank,
            "model": self.model,
            "params": list(self.params),
            "param_model": self.param_model,
            "modulo_constant": self.modulo_constant,
            "geometric_only": self.geometric_only,
            "checks": [{"kind": c.kind, **c.payload} for c in self.checks],
            "notes": self.notes,
        }


@dataclass
class CheckReport:
    kind: str
    ok: bool
    detail: str = ""
    witness_degree: int | None = None
    seconds: float = field(default=0.0, compare=False)


@dataclass
class EntryReport:
    entry_id: str
    ok: bool
    checks: list[CheckReport] = field(default_factory=list)
    seconds: float = 0.0
    error: str = ""


def _typed(kind: type, value):
    """A JSON value of the given type; a bool is not an int."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")


_bool, _int, _str = (partial(_typed, kind) for kind in (bool, int, str))


def _count(value) -> int:
    if _int(value) < 0:
        raise ValueError(f"got {value}")
    return value


def _vector(value, read, length=None) -> tuple:
    """A JSON list read item by item, of the given length if one is set."""
    out = tuple(map(read, _typed(list, value)))
    if length not in (None, len(out)):
        raise ValueError(f"{len(out)} items, expected {length}")
    return out


def _read(raw: dict, readers: dict) -> dict:
    """The values of ``raw`` under the keys of ``readers``, each through its
    reader; a value that its reader refuses, or a key with no reader, is a
    CatalogError."""
    unknown = raw.keys() - readers.keys()
    if unknown:
        raise CatalogError(f"unknown key {min(unknown)!r}")
    out = {}
    for key, (reader, message) in readers.items():
        if key in raw:
            try:
                out[key] = reader(raw[key])
            except (LookupError, TypeError, ValueError) as err:
                raise CatalogError(f"{message} ({err})") from None
    return out


def _check_from_json(index: int, raw, dim: int, param_rank: int) -> Check:
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in _CHECK_KEYS:
        raise CatalogError(f"check {index}: unknown check kind {kind!r}")
    payload = {k: v for k, v in raw.items() if k != "kind"}
    label = f"check {index} ({kind})"
    keys = []
    for spec in _CHECK_KEYS[kind].split():
        options = spec.rstrip("?").split("|")
        if spec[-1] != "?" and not any(k in payload for k in options):
            raise CatalogError(f"{label}: missing key " + " or ".join(map(repr, options)))
        keys += options

    assign = partial(assignment, param_rank=param_rank)
    names = partial(parameter_index, param_rank=param_rank)

    def expression(spec):
        if isinstance(spec, dict) and "param_model_at" in spec:
            return assign(spec["param_model_at"])
        return _str(spec)

    def support(value):
        return set(_vector(value, lambda ray: _vector(ray, _int)))

    readers = {
        key: (
            expression,
            f"'param_model_at' in {key!r} must map parameters of the entry to rationals,"
            f" or {key!r} must be a string",
        )
        for key in _EXPRESSION_KEYS
    }
    readers.update(
        modulo_constant=(_bool, "'modulo_constant' must be true or false"),
        match_model=(_bool, "'match_model' must be true or false"),
        target_id=(_str, "'target_id' must be an entry id"),
        expect_id=(_str, "'expect_id' must be an entry id"),
        order=(_count, "'order' must be a non-negative integer"),
        rays=(
            lambda rays: toric.FanData(len(_typed(list, rays)[0]), rays),
            "'rays' must be a non-empty list of equal-length integer vectors that span a fan",
        ),
        d=(
            lambda d: _vector(d, rational, len(payload["rays"])),
            "'d' must give one rational per ray",
        ),
        direction=(lambda d: _vector(d, rational), "'direction' must be a list of rationals"),
        subst=(assign, "'subst' must map parameter names to rationals"),
        dying=(lambda d: _vector(d, names), "'dying' must list parameters of the entry"),
        fibre_weight=(
            lambda w: _vector(w, _int, dim), "'fibre_weight' must give one integer per variable"
        ),
        min_support=(support, "'min_support' must be a list of integer vectors"),
        max_support=(support, "'max_support' must be a list of integer vectors"),
        steps=(
            lambda s: mutation.chain_steps_from_json(s, dim, param_rank),
            "'steps' must be a valid chain",
        ),
    )
    try:
        return Check(kind, payload, _read(payload, {k: readers[k] for k in keys}))
    except CatalogError as err:
        raise CatalogError(f"{label}: {err}") from None


def _optional_str(value) -> str | None:
    return value if value is None else _str(value)


def _param_names(value) -> tuple[str, ...]:
    names = _vector(value, _str)
    if names != tuple(f"a{i + 1}" for i in range(len(names))):
        raise ValueError(f"got {list(names)}")
    return names


# entry keys with their readers; an absent key takes the CatalogEntry default
_ENTRY_READERS = {
    "id": (_str, "'id' must be a string"),
    "dim": (_count, "'dim' must be a non-negative integer"),
    "picard_rank": (_count, "'picard_rank' must be a non-negative integer"),
    "model": (_optional_str, "'model' must be a string or null"),
    "params": (_param_names, "'params' must be a list of strings ['a1', ..., 'ak']"),
    "param_model": (_optional_str, "'param_model' must be a string or null"),
    "modulo_constant": (_bool, "'modulo_constant' must be true or false"),
    "geometric_only": (_bool, "'geometric_only' must be true or false"),
    "checks": (partial(_typed, list), "'checks' must be a list"),
    "notes": (_str, "'notes' must be a string"),
}


def _entry_from_json(raw: dict) -> CatalogEntry:
    if not isinstance(raw, dict):
        raise CatalogError(f"catalog entry {raw!r} is not a JSON object")
    try:
        fields = _read(raw, _ENTRY_READERS)
        dim, param_rank = raw["dim"], len(fields.get("params", ()))
        checks = enumerate(fields.get("checks", ()))
        fields["checks"] = tuple(_check_from_json(i, c, dim, param_rank) for i, c in checks)
        entry = CatalogEntry(**fields)
    except (KeyError, TypeError, ValueError) as err:
        raise CatalogError(f"entry {raw.get('id', '?')!r}: {err}") from err
    # the declared polynomials must parse at the declared ranks; the parsed
    # values stay cached on the entry for its checks
    for label in ("model", "param_model"):
        try:
            getattr(entry, "parse_" + label)
        except LaurentError as err:
            raise CatalogError(f"entry {entry.id!r}: {label} does not parse: {err}") from err
    for index, check in enumerate(entry.checks):
        label = f"entry {entry.id!r}: check {index} ({check.kind})"
        if check.kind == "period_match" and entry.model is None and "source" not in check.args:
            raise CatalogError(f"{label}: missing key 'source', and the entry has no model")
        if check.args.get("match_model") and entry.model is None:
            raise CatalogError(f"{label}: 'match_model' is set, and the entry has no model")
        if entry.param_model is None and (
            check.kind == "parameter_limit_edge"
            or any(isinstance(check.args.get(key), dict) for key in _EXPRESSION_KEYS)
        ):
            raise CatalogError(f"{label}: the entry has no param_model")
    return entry


def default_catalog_path() -> Path:
    return Path(str(resources.files("lgforge").joinpath("data/catalog.json")))


def load_catalog(path: str | Path | None = None) -> list[CatalogEntry]:
    """Load and validate entries, sorted by id."""
    if path is None:
        path = default_catalog_path()
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise CatalogError("catalog file must contain a JSON list of entries")
    entries = [_entry_from_json(item) for item in raw]
    ids = [e.id for e in entries]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CatalogError(f"duplicate entry ids: {dupes}")
    with_model = {e.id for e in entries if e.model is not None}
    for e in entries:
        for index, check in enumerate(e.checks):
            target = check.args.get("target_id", check.args.get("expect_id"))
            if target is not None and target not in with_model:
                raise CatalogError(
                    f"entry {e.id!r}: check {index} ({check.kind}): no entry {target!r}"
                    " with a model"
                )
    return sorted(entries, key=lambda e: e.id)


class _Resolver:
    """Expression lookup shared by the check runners."""

    def __init__(self, entries: list[CatalogEntry]):
        self.by_id = {e.id: e for e in entries}

    def model_of(self, entry_id: str) -> LaurentPolynomial:
        entry = self.by_id.get(entry_id)
        if entry is None:
            raise CatalogError(f"unknown target entry {entry_id!r}")
        model = entry.parse_model
        if model is None:
            raise CatalogError(f"entry {entry_id!r} has no model polynomial")
        return _strip_params(model)

    def expr(self, entry: CatalogEntry, spec, rank=None) -> LaurentPolynomial:
        """An expression: a string, or a {parameter index: value} assignment
        to the entry's param_model."""
        rank = entry.rank if rank is None else rank
        if isinstance(spec, str):
            if spec == entry.model and rank == entry.rank:
                return at_param_rank(entry.parse_model, 0)
            return at_param_rank(parse(spec, rank, entry.param_rank), 0)
        return entry.parse_param_model.substitute_parameters(spec)


def _strip_params(f: LaurentPolynomial) -> LaurentPolynomial:
    return f.substitute_parameters(dict.fromkeys(range(f.param_rank), 1))


def _run_exact_equal(entry, check, resolver, order) -> CheckReport:
    left = resolver.expr(entry, check.args["left"])
    right = resolver.expr(entry, check.args["right"])
    if check.args.get("modulo_constant", False):
        left = left - LaurentPolynomial.constant(left.constant_term(), left.rank, left.param_rank)
        right = right - LaurentPolynomial.constant(right.constant_term(), right.rank, right.param_rank)
    ok = left == right
    detail = "" if ok else f"difference {(left - right).render()}"
    return CheckReport("exact_equal", ok, detail)


def _run_period_match(entry, check, resolver, order) -> CheckReport:
    args = check.args
    n = args.get("order", order)
    source = resolver.expr(entry, args["source"]) if "source" in args else entry.parse_model
    source = _strip_params(source)
    if "target_id" in args:
        target = resolver.model_of(args["target_id"])
        label = args["target_id"]
    else:
        target = _strip_params(resolver.expr(entry, args["target"]))
        label = "expression"
    modulo = args.get("modulo_constant", entry.modulo_constant)
    witness = period.first_period_mismatch(source, target, n)
    if witness is not None:
        degree, expected, got = witness
        return CheckReport(
            "period_match",
            False,
            f"period differs from {label} first at degree {degree} ({expected} vs {got})",
            witness_degree=degree,
        )
    shift = period.constant_shift(source, target)
    if shift != 0 and not modulo:
        return CheckReport(
            "period_match",
            False,
            f"periods agree only up to nonzero shift {shift}",
            witness_degree=0,
        )
    return CheckReport("period_match", True, f"matches {label} (shift {shift}) to order {n}")


def _run_mutation_chain(entry, check, resolver, order) -> CheckReport:
    args = check.args
    n = args.get("order", order)
    start = resolver.expr(entry, args["start"])
    expected = resolver.expr(entry, args["expected"])
    modulo = args.get("modulo_constant", entry.modulo_constant)
    chain = mutation.MutationChain(start, args["steps"])
    report = mutation.verify_chain(chain, expected, order=n, modulo_constant=modulo)
    if report.ok:
        return CheckReport("mutation_chain", True, report.detail)
    failed = [s for s in report.steps if not s.ok]
    detail = report.detail or (failed[0].description + ": " + failed[0].detail if failed else "")
    degree = report.witness[0] if report.witness else None
    return CheckReport("mutation_chain", False, detail, witness_degree=degree)


def _run_parameter_limit_edge(entry, check, resolver, order) -> CheckReport:
    args = check.args
    f = entry.parse_param_model
    if "direction" in args:
        f = degeneration.parameter_direction_limit(f, args["direction"])
    # one substitution: dying parameters go to 0, the rest to their subst value or 1
    dying, subst = args.get("dying", ()), args.get("subst", {})
    f = f.substitute_parameters(
        {i: 0 if i in dying else subst.get(i, 1) for i in range(f.param_rank)}
    )
    if "fibre_weight" in args:
        w = args["fibre_weight"]
        pieces = f.graded_pieces(w)
        f = pieces.get(0, LaurentPolynomial.zero(f.rank, f.param_rank))
        axes = [i for i, x in enumerate(w) if x != 0]
        if len(axes) == 1 and abs(w[axes[0]]) == 1:
            f = f.drop_coordinate(axes[0])
    if "expect_id" in args:
        expected = resolver.model_of(args["expect_id"])
    else:
        expected = resolver.expr(entry, args["expect"], rank=f.rank)
    expected = _strip_params(expected)
    ok = f == expected
    return CheckReport(
        "parameter_limit_edge",
        ok,
        "" if ok else f"limit gives {f.render()}, expected {expected.render()}",
    )


def _run_direction_degeneration_edge(entry, check, resolver, order) -> CheckReport:
    args = check.args
    fan = args["rays"]
    result = degeneration.direction_degeneration(degeneration.DivisorOnFan(fan, args["d"]))
    got_min = set(result.min_rays(fan))
    got_max = set(result.max_rays(fan))
    want_min, want_max = args["min_support"], args["max_support"]
    ok = got_min == want_min and got_max == want_max
    detail = "" if ok else f"min {sorted(got_min)} vs {sorted(want_min)}; max {sorted(got_max)} vs {sorted(want_max)}"
    return CheckReport("direction_degeneration_edge", ok, detail)


def _run_toric_oracle(entry, check, resolver, order) -> CheckReport:
    fan = check.args["rays"]
    n = check.args.get("order", 8)
    cg = toric.class_group(fan)
    model = toric.toric_pair_model(fan, cg)
    # the monoid series enforces the order budget, so it runs before the powering
    combinatorial = toric.toric_quantum_period(fan, cg, n)
    direct = period.period_coefficients(model, n)
    witness = period.series_mismatch(direct, combinatorial)
    if witness is not None:
        mismatch = witness[0]
        return CheckReport(
            "toric_oracle",
            False,
            f"powering and monoid oracle disagree at degree {mismatch}",
            witness_degree=mismatch,
        )
    detail = f"oracle agreement to order {n}"
    if check.args.get("match_model", False):
        specialized = _strip_params(model)
        target = _strip_params(entry.parse_model)
        if specialized != target:
            return CheckReport(
                "toric_oracle",
                False,
                f"ray-sum model {specialized.render()} differs from entry model",
            )
        detail += "; specializes to the entry model"
    return CheckReport("toric_oracle", True, detail)


_RUNNERS = {
    "exact_equal": _run_exact_equal,
    "period_match": _run_period_match,
    "mutation_chain": _run_mutation_chain,
    "parameter_limit_edge": _run_parameter_limit_edge,
    "direction_degeneration_edge": _run_direction_degeneration_edge,
    "toric_oracle": _run_toric_oracle,
}


def verify_entry(
    entry: CatalogEntry,
    order: int = DEFAULT_ORDER,
    entries: list[CatalogEntry] | None = None,
) -> EntryReport:
    """Run every declared check of one entry; failures become report lines."""
    resolver = _Resolver(entries if entries is not None else [entry])
    start = time.perf_counter()
    report = EntryReport(entry_id=entry.id, ok=True)
    for check in entry.checks:
        check_start = time.perf_counter()
        try:
            result = _RUNNERS[check.kind](entry, check, resolver, order)
        except (LaurentError, CatalogError) as err:
            result = CheckReport(check.kind, False, f"error: {err}")
        result.seconds = time.perf_counter() - check_start
        report.checks.append(result)
        if not result.ok:
            report.ok = False
    report.seconds = time.perf_counter() - start
    return report


def select_entries(entries: list[CatalogEntry], id_filter: str | None) -> list[CatalogEntry]:
    """Entries whose id matches the glob, or starts with it; all for None."""
    if id_filter is None:
        return list(entries)
    return [
        e
        for e in entries
        if fnmatch.fnmatch(e.id, id_filter) or e.id.startswith(id_filter)
    ]


def verify_all(
    order: int = DEFAULT_ORDER,
    path: str | Path | None = None,
    id_filter: str | None = None,
    workers: int = 1,
) -> list[EntryReport]:
    """Verify every (filtered) entry; reports are ordered by id.

    The file is read on every call.  At most ``workers`` processes run the
    entries, and never more than there are entries or cores.
    """
    entries = load_catalog(path)
    selected = select_entries(entries, id_filter)
    workers = min(workers, len(selected), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # a task pickles the whole entry list once per chunk; four chunks
            # per worker still balance the uneven entry costs
            chunk = -(-len(selected) // (4 * workers))
            reports = list(
                pool.map(verify_entry, selected, repeat(order), repeat(entries), chunksize=chunk)
            )
    else:
        reports = [verify_entry(e, order, entries) for e in selected]
    return sorted(reports, key=lambda r: r.entry_id)
