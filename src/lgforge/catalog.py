"""Machine-readable catalog of LG models with declarative checks.

Entries live in a versioned JSON file (see ``data/catalog.json``); the
harness here parses them, runs every declared check and reports pass/fail
with witnesses.  The catalog is data, not code: errata are fixed by
editing the file.

Schema (one entry)::

    {"id": str, "dim": int, "picard_rank": int,
     "model": str | null,            # primary polynomial, if the source states one
     "params": [str, ...],           # parameter names for param_model
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
from functools import cached_property
from fractions import Fraction
from importlib import resources
from itertools import repeat
from pathlib import Path

from . import degeneration, mutation, period, toric
from .laurent import LaurentError, LaurentPolynomial
from .parsing import ExpressionError, parse, rational
from .toric import _is_int

DEFAULT_ORDER = 10

# required payload keys per check kind; a tuple names alternatives
_REQUIRED_KEYS = {
    "exact_equal": ("left", "right"),
    "period_match": (("target", "target_id"),),
    "mutation_chain": ("start", "steps", "expected"),
    "parameter_limit_edge": (("expect", "expect_id"),),
    "direction_degeneration_edge": ("rays", "d", "min_support", "max_support"),
    "toric_oracle": ("rays",),
}
# check kinds that read an optional series 'order'
_ORDER_KINDS = ("period_match", "mutation_chain", "toric_oracle")


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class Check:
    kind: str
    payload: dict

    def __post_init__(self):
        if self.kind not in _REQUIRED_KEYS:
            raise CatalogError(f"unknown check kind {self.kind!r}")


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    dim: int
    picard_rank: int
    model: str | None
    params: tuple[str, ...]
    param_model: str | None
    modulo_constant: bool
    geometric_only: bool
    checks: tuple[Check, ...]
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


@dataclass
class EntryReport:
    entry_id: str
    ok: bool
    checks: list[CheckReport] = field(default_factory=list)
    seconds: float = 0.0
    error: str = ""


def _check_from_json(index: int, raw, params: tuple[str, ...]) -> Check:
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in _REQUIRED_KEYS:
        raise CatalogError(f"check {index}: unknown check kind {kind!r}")
    payload = {k: v for k, v in raw.items() if k != "kind"}
    for keys in _REQUIRED_KEYS[kind]:
        options = keys if isinstance(keys, tuple) else (keys,)
        if not any(k in payload for k in options):
            missing = " or ".join(repr(k) for k in options)
            raise CatalogError(f"check {index} ({kind}): missing key {missing}")
    label = f"check {index} ({kind})"
    if "rays" in _REQUIRED_KEYS[kind]:
        _check_fan_payload(label, payload)
    order = payload.get("order", 0)
    if kind in _ORDER_KINDS and not (_is_int(order) and order >= 0):
        raise CatalogError(f"{label}: 'order' must be a non-negative integer")
    if kind == "parameter_limit_edge":
        direction, subst = payload.get("direction", []), payload.get("subst", {})
        if not (isinstance(direction, list) and all(map(_is_rational, direction))):
            raise CatalogError(f"{label}: 'direction' must be a list of rationals")
        if not (isinstance(subst, dict) and all(map(_is_rational, subst.values()))):
            raise CatalogError(f"{label}: 'subst' must map parameter names to rationals")
    for key, spec in payload.items():
        assign = spec.get("param_model_at", {}) if isinstance(spec, dict) else {}
        if not (
            isinstance(assign, dict)
            and set(assign) <= set(params)
            and all(map(_is_rational, assign.values()))
        ):
            raise CatalogError(
                f"{label}: 'param_model_at' in {key!r} must map parameters of the entry"
                " to rationals"
            )
    return Check(kind, payload)


def _is_rational(x) -> bool:
    try:
        rational(x)
    except ExpressionError:
        return False
    return True


def _check_fan_payload(label: str, payload: dict):
    """'rays' is a non-empty list of equal-length integer vectors, and 'd',
    when present, gives one rational (an int or a string) per ray."""
    rays = payload["rays"]
    if not (
        isinstance(rays, list)
        and rays
        and all(
            isinstance(r, list) and r and len(r) == len(rays[0]) and all(map(_is_int, r))
            for r in rays
        )
    ):
        raise CatalogError(
            f"{label}: 'rays' must be a non-empty list of equal-length integer vectors"
        )
    d = payload.get("d")
    if "d" in payload and not (
        isinstance(d, list) and len(d) == len(rays) and all(map(_is_rational, d))
    ):
        raise CatalogError(f"{label}: 'd' must give one rational per ray")


def _entry_from_json(raw: dict) -> CatalogEntry:
    if not isinstance(raw, dict):
        raise CatalogError(f"catalog entry {raw!r} is not a JSON object")
    try:
        params = tuple(raw.get("params", ()))
        checks = [_check_from_json(i, c, params) for i, c in enumerate(raw.get("checks", ()))]
        entry = CatalogEntry(
            id=raw["id"],
            dim=int(raw["dim"]),
            picard_rank=int(raw["picard_rank"]),
            model=raw.get("model"),
            params=params,
            param_model=raw.get("param_model"),
            modulo_constant=bool(raw.get("modulo_constant", False)),
            geometric_only=bool(raw.get("geometric_only", False)),
            checks=tuple(checks),
            notes=raw.get("notes", ""),
        )
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
        if check.kind == "period_match" and entry.model is None and "source" not in check.payload:
            raise CatalogError(
                f"entry {entry.id!r}: check {index} (period_match): missing key 'source',"
                " and the entry has no model"
            )
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
        """An expression spec: a string, or {"param_model_at": {...}}."""
        rank = entry.rank if rank is None else rank
        if isinstance(spec, str):
            if spec == entry.model and rank == entry.rank:
                return _drop_unused_params(entry.parse_model)
            return _drop_unused_params(parse(spec, rank, entry.param_rank))
        if isinstance(spec, dict) and "param_model_at" in spec:
            f = entry.parse_param_model
            if f is None:
                raise CatalogError(f"entry {entry.id!r} has no param_model")
            assign = {
                _param_index(entry, name): rational(value)
                for name, value in spec["param_model_at"].items()
            }
            return f.substitute_parameters(assign)
        raise CatalogError(f"bad expression spec {spec!r}")


def _param_index(entry: CatalogEntry, name: str) -> int:
    try:
        return entry.params.index(name)
    except ValueError:
        raise CatalogError(f"entry {entry.id!r} has no parameter {name!r}") from None


def _strip_params(f: LaurentPolynomial) -> LaurentPolynomial:
    if f.param_rank:
        return f.substitute_parameters({i: Fraction(1) for i in range(f.param_rank)})
    return f


def _drop_unused_params(f: LaurentPolynomial) -> LaurentPolynomial:
    """Canonicalize a polynomial that declares parameters but uses none."""
    from .laurent import ParamPoly

    if f.param_rank and not any(isinstance(c, ParamPoly) for c in f.terms.values()):
        return LaurentPolynomial(f.rank, 0, dict(f.terms))
    return f


def _run_exact_equal(entry, check, resolver, order) -> CheckReport:
    left = resolver.expr(entry, check.payload["left"])
    right = resolver.expr(entry, check.payload["right"])
    modulo = check.payload.get("modulo_constant", False)
    if modulo:
        left = left - LaurentPolynomial.constant(left.constant_term(), left.rank, left.param_rank)
        right = right - LaurentPolynomial.constant(right.constant_term(), right.rank, right.param_rank)
    ok = left == right
    detail = "" if ok else f"difference {(left - right).render()}"
    return CheckReport("exact_equal", ok, detail)


def _run_period_match(entry, check, resolver, order) -> CheckReport:
    n = check.payload.get("order", order)
    source_spec = check.payload.get("source")
    source = (
        resolver.expr(entry, source_spec)
        if source_spec is not None
        else entry.parse_model
    )
    source = _strip_params(source)
    if "target_id" in check.payload:
        target = resolver.model_of(check.payload["target_id"])
        label = check.payload["target_id"]
    else:
        target = _strip_params(resolver.expr(entry, check.payload["target"]))
        label = "expression"
    modulo = check.payload.get("modulo_constant", entry.modulo_constant)
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
    n = check.payload.get("order", order)
    start = resolver.expr(entry, check.payload["start"])
    steps = mutation.chain_steps_from_json(
        check.payload["steps"],
        entry.rank,
        entry.param_rank,
        lambda name: _param_index(entry, name),
    )
    expected = resolver.expr(entry, check.payload["expected"])
    modulo = check.payload.get("modulo_constant", entry.modulo_constant)
    chain = mutation.MutationChain(start, steps)
    report = mutation.verify_chain(chain, expected, order=n, modulo_constant=modulo)
    if report.ok:
        return CheckReport("mutation_chain", True, report.detail)
    failed = [s for s in report.steps if not s.ok]
    detail = report.detail or (failed[0].description + ": " + failed[0].detail if failed else "")
    degree = report.witness[0] if report.witness else None
    return CheckReport("mutation_chain", False, detail, witness_degree=degree)


def _run_parameter_limit_edge(entry, check, resolver, order) -> CheckReport:
    f = entry.parse_param_model
    if f is None:
        raise CatalogError(f"entry {entry.id!r} has no param_model")
    payload = check.payload
    if "direction" in payload:
        direction = [rational(x) for x in payload["direction"]]
        f = degeneration.parameter_direction_limit(f, direction)
    if payload.get("dying"):
        dying = [_param_index(entry, name) for name in payload["dying"]]
        f = degeneration.parameter_limit(f, dying)
    if f.param_rank:
        # remaining parameters keep their relative order; default assignment 1
        subst = payload.get("subst", {})
        survivors = [n for n in entry.params if n not in payload.get("dying", ())]
        values = {
            idx: rational(subst.get(name, 1))
            for idx, name in enumerate(survivors[: f.param_rank])
        }
        f = f.substitute_parameters(values)
    if "fibre_weight" in payload:
        w = tuple(int(x) for x in payload["fibre_weight"])
        pieces = f.graded_pieces(w)
        f = pieces.get(0, LaurentPolynomial.zero(f.rank, f.param_rank))
        axes = [i for i, x in enumerate(w) if x != 0]
        if len(axes) == 1 and abs(w[axes[0]]) == 1:
            f = f.drop_coordinate(axes[0])
    if "expect_id" in payload:
        expected = resolver.model_of(payload["expect_id"])
    else:
        expected = resolver.expr(entry, payload["expect"], rank=f.rank)
    expected = _strip_params(expected)
    ok = f == expected
    return CheckReport(
        "parameter_limit_edge",
        ok,
        "" if ok else f"limit gives {f.render()}, expected {expected.render()}",
    )


def _run_direction_degeneration_edge(entry, check, resolver, order) -> CheckReport:
    fan = toric.FanData(
        rank=len(check.payload["rays"][0]),
        rays=tuple(tuple(r) for r in check.payload["rays"]),
    )
    d = [rational(x) for x in check.payload["d"]]
    result = degeneration.direction_degeneration(degeneration.DivisorOnFan(fan, tuple(d)))
    got_min = set(result.min_rays(fan))
    got_max = set(result.max_rays(fan))
    want_min = {tuple(r) for r in check.payload["min_support"]}
    want_max = {tuple(r) for r in check.payload["max_support"]}
    ok = got_min == want_min and got_max == want_max
    detail = "" if ok else f"min {sorted(got_min)} vs {sorted(want_min)}; max {sorted(got_max)} vs {sorted(want_max)}"
    return CheckReport("direction_degeneration_edge", ok, detail)


def _run_toric_oracle(entry, check, resolver, order) -> CheckReport:
    fan = toric.FanData(
        rank=len(check.payload["rays"][0]),
        rays=tuple(tuple(r) for r in check.payload["rays"]),
    )
    n = check.payload.get("order", 8)
    cg = toric.class_group(fan)
    model = toric.toric_pair_model(fan, cg)
    direct = period.period_coefficients(model, n, period.REGULARIZED)
    combinatorial = toric.toric_quantum_period(fan, cg, n)
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
    if check.payload.get("match_model", False):
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
        try:
            result = _RUNNERS[check.kind](entry, check, resolver, order)
        except (LaurentError, CatalogError) as err:
            result = CheckReport(check.kind, False, f"error: {err}")
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
