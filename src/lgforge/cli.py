"""Command-line front end.

One verb per operation family: expression-level commands (period, mutate,
coords, subst, newton, chain, regularize), toric constructions under the
``toric`` group, degenerations, Markov triples, and the catalog harness.
Exact rationals render as ``p/q``; ``--json`` switches every subcommand to
a machine-readable envelope of the form {"command": ..., ...}.

Each subcommand imports the library modules it runs when it runs, so a
cold start of one verb does not load the others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import factorial


class CliError(Exception):
    pass


class UsageError(Exception):
    """A malformed argument value or input file (exit status 2)."""


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(x) for x in text.split(",") if x.strip() != ""]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected comma-separated rationals, got {text!r}") from None


def _three_ints(text: str) -> list[int]:
    values = _parse_ints(text)
    if len(values) != 3:
        raise UsageError(f"expected three comma-separated integers, got {text!r}")
    return values


def _parse_matrix(text: str) -> list[list[int]]:
    return [_parse_ints(row) for row in text.split(";")]


def _order(text: str) -> int:
    value = int(text) if text.strip().lstrip("+").isdigit() else -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _at_least_one(text: str) -> int:
    value = int(text) if text.strip().lstrip("+-").isdigit() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _load_fan(path: str):
    from . import toric

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return toric.FanData.from_json(data)
    except KeyError as err:
        raise UsageError(f"{path}: a fan needs the key {err}") from None
    except (TypeError, ValueError) as err:
        raise UsageError(f"{path}: not a fan: {err}") from None


def _param_index(name: str) -> int:
    """Index of the parameter named a1, a2, ..."""
    name = name.strip()
    if not (name[:1] == "a" and name[1:].isdigit() and int(name[1:]) >= 1):
        raise ValueError(f"parameters are named a1, a2, ..., got {name!r}")
    return int(name[1:]) - 1


def _parse_assign(text: str, param_rank: int) -> dict[int, Fraction]:
    """Parameter values from ``a1=1,a2=-1/2``, keyed by parameter index;
    every index is below ``param_rank``."""
    assign = {}
    for item in text.split(","):
        try:
            name, value = item.split("=")
            index = _param_index(name)
            if index >= param_rank:
                raise ValueError(f"no parameter {name!r}")
            assign[index] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"expected assignments like a1=1/2, got {item!r}") from None
    return assign


def _expression(args, rank=None):
    from .parsing import parse

    rank = args.rank if rank is None else rank
    return parse(args.expression, rank, args.params)


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# -- subcommand implementations ----------------------------------------------


def cmd_period(args):
    from . import period

    f = _expression(args)
    coefficients = period.period_coefficients(f, args.n).coefficients
    if args.classical:
        coefficients = [c * Fraction(1, factorial(d)) for d, c in enumerate(coefficients)]
    flavor = "classical" if args.classical else "regularized"
    values = [str(c) for c in coefficients]
    _emit(
        args,
        {"command": "period", "order": args.n, "flavor": flavor, "coefficients": values},
        f"{flavor} [" + ", ".join(values) + "]",
    )


def cmd_regularize(args):
    from .parsing import ExpressionError, rational

    coeffs = json.loads(args.series)
    if not isinstance(coeffs, list):
        raise UsageError(f"expected a JSON list of rationals, got {args.series!r}")
    try:
        out = [str(rational(c) * factorial(d)) for d, c in enumerate(coeffs)]
    except ExpressionError as err:
        raise UsageError(str(err)) from None
    _emit(
        args,
        {"command": "regularize", "coefficients": out},
        "[" + ", ".join(out) + "]",
    )


def cmd_mutate(args):
    from . import mutation
    from .parsing import parse

    f = _expression(args)
    factor = parse(args.a, f.rank, f.param_rank)
    data = mutation.MutationData(tuple(_parse_ints(args.w)), factor)
    try:
        g = mutation.mutate(f, data) if not args.invert else mutation.invert_mutation(f, data)
    except mutation.NotMutableError as err:
        raise CliError(f"not mutable: {err}") from err
    _emit(
        args,
        {"command": "mutate", "result": g.render()},
        g.render(),
    )


def cmd_coords(args):
    f = _expression(args)
    g = f.apply_monomial_map(_parse_matrix(args.matrix))
    _emit(args, {"command": "coords", "result": g.render()}, g.render())


def cmd_subst(args):
    assign = _parse_assign(args.assign, args.params)
    f = _expression(args)
    g = f.substitute_parameters(assign)
    _emit(args, {"command": "subst", "result": g.render()}, g.render())


def cmd_newton(args):
    f = _expression(args)
    data = f.newton_polytope()
    verts = [list(v) for v in sorted(data.vertices)]
    _emit(
        args,
        {"command": "newton", "dimension": data.dimension, "vertices": verts},
        f"dimension {data.dimension}; vertices " + " ".join(str(tuple(v)) for v in verts),
    )


def cmd_chain(args):
    from . import mutation

    with open(args.file, encoding="utf-8") as fh:
        steps_json = json.load(fh)
    f = _expression(args)
    try:
        steps = mutation.chain_steps_from_json(steps_json, f.rank, f.param_rank, _param_index)
    except mutation.ChainFormatError as err:
        raise UsageError(str(err)) from err
    report = mutation.run_chain(mutation.MutationChain(f, steps), order=args.n)
    lines = [
        f"step {s.index}: {s.description}: {'ok' if s.ok else 'FAIL'}"
        + (f" ({s.detail})" if s.detail else "")
        for s in report.steps
    ]
    final = report.final.render() if report.final is not None else ""
    _emit(
        args,
        {
            "command": "chain",
            "ok": report.ok,
            "steps": [
                {"index": s.index, "description": s.description, "ok": s.ok, "detail": s.detail}
                for s in report.steps
            ],
            "result": final,
        },
        "\n".join(lines + [final]),
    )
    if not report.ok:
        raise CliError("chain failed")


def _fan_and_class_group(args):
    from . import toric

    fan = _load_fan(args.fan)
    return fan, toric.class_group(fan)


def cmd_toric_hv(args):
    from . import toric

    fan = _load_fan(args.fan)
    f = toric.hori_vafa(fan)
    _emit(args, {"command": "toric hv", "result": f.render()}, f.render())


def cmd_toric_pair(args):
    from . import toric

    fan, cg = _fan_and_class_group(args)
    f = toric.toric_pair_model(fan, cg)
    _emit(
        args,
        {
            "command": "toric pair",
            "result": f.render(),
            "class_rank": cg.class_rank,
            "classes": [list(c) for c in cg.class_map],
        },
        f.render(),
    )


def cmd_toric_qp(args):
    from . import toric

    fan, cg = _fan_and_class_group(args)
    series = toric.toric_quantum_period(fan, cg, args.n)
    values = series.render_list()
    _emit(
        args,
        {"command": "toric qp", "order": args.n, "coefficients": values},
        "regularized [" + ", ".join(values) + "]",
    )


def cmd_toric_ci(args):
    from . import toric

    fan, cg = _fan_and_class_group(args)
    blocks = tuple(tuple(_parse_ints(b)) for b in args.part.split(";"))
    series = toric.ci_quantum_period(fan, cg, toric.NefPartition(blocks), args.n)
    values = series.render_list()
    _emit(
        args,
        {"command": "toric ci", "order": args.n, "coefficients": values},
        "regularized [" + ", ".join(values) + "]",
    )


def cmd_toric_fibre(args):
    from . import toric

    fan = _load_fan(args.fan)
    sub = toric.fibre_fan(fan, _parse_matrix(args.projection))
    _emit(
        args,
        {"command": "toric fibre", "fan": sub.to_json()},
        json.dumps(sub.to_json()),
    )


def cmd_toric_wpp(args):
    from . import toric

    data = toric.wpp_fan_polytope(*_three_ints(args.weights))
    verts = [list(v) for v in data.vertices]
    _emit(
        args,
        {"command": "toric wpp", "vertices": verts},
        " ".join(str(tuple(v)) for v in verts),
    )


def cmd_degenerate(args):
    from . import degeneration

    fan = _load_fan(args.fan)
    d = _parse_fractions(args.d)
    result = degeneration.direction_degeneration(
        degeneration.DivisorOnFan(fan, tuple(d))
    )
    payload = {
        "command": "degenerate",
        "min_support": [list(r) for r in result.min_rays(fan)],
        "max_support": [list(r) for r in result.max_rays(fan)],
        "intervals": [[str(a), str(b)] for a, b in result.intervals],
        "vertices": [[str(c) for c in v] for v in result.polytope_vertices],
    }
    text = (
        "f_min rays: " + " ".join(str(r) for r in result.min_rays(fan)) + "\n"
        "f_max rays: " + " ".join(str(r) for r in result.max_rays(fan)) + "\n"
        "intervals: " + " ".join(f"[{a},{b}]" for a, b in result.intervals)
    )
    _emit(args, payload, text)


def cmd_markov(args):
    from . import toric

    triple = toric.MarkovTriple(*_three_ints(args.triple))
    if args.slot is not None:
        new = toric.markov_mutate(triple, args.slot)
        _emit(
            args,
            {"command": "markov", "triple": list(new.as_tuple())},
            str(new.as_tuple()),
        )
    else:
        tree = sorted(toric.markov_tree(args.depth))
        _emit(
            args,
            {"command": "markov", "tree": [list(t) for t in tree]},
            "\n".join(str(t) for t in tree),
        )


def _catalog_path(args):
    if args.catalog:
        return args.catalog
    return os.environ.get("LGFORGE_CATALOG") or None


def cmd_catalog_list(args):
    from . import catalog

    try:
        entries = catalog.load_catalog(_catalog_path(args))
    except catalog.CatalogError as err:
        raise UsageError(str(err)) from err
    entries = catalog.select_entries(entries, args.id)
    payload = [
        {
            "id": e.id,
            "dim": e.dim,
            "picard_rank": e.picard_rank,
            "model": e.model,
            "checks": len(e.checks),
            "geometric_only": e.geometric_only,
        }
        for e in entries
    ]
    text = "\n".join(
        f"{e.id:10s} dim={e.dim} rho={e.picard_rank} checks={len(e.checks)}"
        + (" geometric" if e.geometric_only else "")
        for e in entries
    )
    _emit(args, {"command": "catalog list", "entries": payload}, text)


def cmd_catalog_verify(args):
    from . import catalog

    try:
        reports = catalog.verify_all(
            order=args.n,
            path=_catalog_path(args),
            id_filter=args.id,
            workers=args.threads,
        )
    except catalog.CatalogError as err:
        raise UsageError(str(err)) from err
    lines = []
    all_ok = True
    for rep in reports:
        status = "pass" if rep.ok else "FAIL"
        lines.append(f"{status} {rep.entry_id:10s} ({rep.seconds:.2f}s)")
        for c in rep.checks:
            mark = "ok" if c.ok else "FAIL"
            lines.append(f"    {c.kind}: {mark}" + (f" {c.detail}" if c.detail else ""))
        all_ok = all_ok and rep.ok
    summary = f"{sum(r.ok for r in reports)}/{len(reports)} entries pass"
    payload = {
        "command": "catalog verify",
        "order": args.n,
        "ok": all_ok,
        "entries": [
            {
                "id": r.entry_id,
                "ok": r.ok,
                "seconds": round(r.seconds, 4),
                "checks": [
                    {
                        "kind": c.kind,
                        "ok": c.ok,
                        "detail": c.detail,
                        "witness_degree": c.witness_degree,
                        "seconds": round(c.seconds, 4),
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
    _emit(args, payload, "\n".join(lines + [summary]))
    if not all_ok:
        raise CliError("catalog verification failed")


# -- argument wiring -----------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--rank", type=int, default=3, help="number of torus variables")
    sub.add_argument("--params", type=int, default=0, help="number of parameters")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("expression", help="Laurent polynomial expression")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgforge",
        description="Exact computations with toric Landau-Ginzburg models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("period", help="period series of a polynomial")
    _add_common(p)
    p.add_argument("--n", type=_order, default=10, help="series order")
    p.add_argument("--classical", action="store_true", help="divide by d! per term")
    p.set_defaults(func=cmd_period)

    p = subs.add_parser("regularize", help="multiply a classical series by d!")
    p.add_argument("series", help="JSON array of rational strings")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_regularize)

    p = subs.add_parser("mutate", help="apply a mutation")
    _add_common(p)
    p.add_argument("--w", required=True, help="weight covector, comma-separated")
    p.add_argument("--a", required=True, help="factor polynomial")
    p.add_argument("--invert", action="store_true", help="apply the inverse mutation")
    p.set_defaults(func=cmd_mutate)

    p = subs.add_parser("coords", help="unimodular change of torus coordinates")
    _add_common(p)
    p.add_argument("--matrix", required=True, help="rows separated by ';'")
    p.set_defaults(func=cmd_coords)

    p = subs.add_parser("subst", help="substitute rational parameter values")
    _add_common(p)
    p.add_argument("--assign", required=True, help="e.g. a1=1,a2=0")
    p.set_defaults(func=cmd_subst)

    p = subs.add_parser("newton", help="Newton polytope vertices")
    _add_common(p)
    p.set_defaults(func=cmd_newton)

    p = subs.add_parser("chain", help="run a chain file against an expression")
    _add_common(p)
    p.add_argument("--file", required=True, help="JSON list of steps")
    p.add_argument("--n", type=_order, default=10, help="period check order")
    p.set_defaults(func=cmd_chain)

    toric_parser = subs.add_parser("toric", help="toric fan computations")
    toric_subs = toric_parser.add_subparsers(dest="toric_command", required=True)

    p = toric_subs.add_parser("hv", help="ray-sum mirror polynomial")
    p.add_argument("--fan", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_toric_hv)

    p = toric_subs.add_parser("pair", help="parametrized ray-sum model")
    p.add_argument("--fan", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_toric_pair)

    p = toric_subs.add_parser("qp", help="combinatorial quantum period")
    p.add_argument("--fan", required=True)
    p.add_argument("--n", type=_order, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_toric_qp)

    p = toric_subs.add_parser("ci", help="complete-intersection quantum period")
    p.add_argument("--fan", required=True)
    p.add_argument("--part", required=True, help="blocks 'i,j;k,l,m' with S_0 first")
    p.add_argument("--n", type=_order, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_toric_ci)

    p = toric_subs.add_parser("fibre", help="sub-fan killed by a projection")
    p.add_argument("--fan", required=True)
    p.add_argument("--projection", required=True, help="rows separated by ';'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_toric_fibre)

    p = toric_subs.add_parser("wpp", help="weighted projective plane fan polytope")
    p.add_argument("--weights", required=True, help="w0,w1,w2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_toric_wpp)

    p = subs.add_parser("degenerate", help="minimal/maximal degeneration supports")
    p.add_argument("--fan", required=True)
    p.add_argument("--d", required=True, help="ray coefficients, comma-separated rationals")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_degenerate)

    p = subs.add_parser("markov", help="Markov triples")
    p.add_argument("--triple", default="1,1,1")
    p.add_argument("--slot", type=int, choices=(0, 1, 2))
    p.add_argument("--depth", type=int, default=3, help="tree depth when no slot given")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_markov)

    cat = subs.add_parser("catalog", help="the embedded model catalog")
    cat_subs = cat.add_subparsers(dest="catalog_command", required=True)

    p = cat_subs.add_parser("list", help="list entries")
    p.add_argument("--id", help="id glob or prefix filter")
    p.add_argument("--catalog", help="path to a catalog file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog_list)

    p = cat_subs.add_parser("verify", help="run all declared checks")
    p.add_argument("--id", help="id glob or prefix filter")
    p.add_argument("--n", type=_order, default=10, help="period comparison order")
    p.add_argument(
        "--threads",
        type=_at_least_one,
        default=os.cpu_count() or 1,
        help="worker processes, at most one per core and per entry",
    )
    p.add_argument("--catalog", help="path to a catalog file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (UsageError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
