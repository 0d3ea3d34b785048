"""Command-line interface: examples, determinism, JSON schema."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import validate

from lgforge.cli import main

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/lgforge/data/cli_schema.json").read_text()
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_period_example(capsys):
    code, out = run_cli(["period", "--n", "8", "x+y+z+1/(x*y*z)"], capsys)
    assert code == 0
    assert out.strip() == "regularized [1, 0, 0, 0, 24, 0, 0, 0, 2520]"


@pytest.mark.parametrize(
    "args, text, coefficients",
    [
        (
            ["--rank", "2", "--n", "6", "x+y+1/(x*y)"],
            "classical [1, 0, 0, 1, 0, 0, 1/8]",
            ["1", "0", "0", "1", "0", "0", "1/8"],
        ),
        (
            ["--rank", "2", "--n", "6", "x/2+y/3+1/(6*x*y)+2/3"],
            "classical [1, 2/3, 2/9, 25/324, 13/486, 53/7290, 6677/4199040]",
            ["1", "2/3", "2/9", "25/324", "13/486", "53/7290", "6677/4199040"],
        ),
        (
            ["--rank", "2", "--params", "1", "--n", "5", "a1*x+y+1/(x*y)"],
            "classical [1, 0, 0, a1, 0, 0]",
            ["1", "0", "0", "a1", "0", "0"],
        ),
    ],
    ids=["p2", "mixed-denominators", "parameter"],
)
def test_period_classical_output_is_pinned(capsys, args, text, coefficients):
    """--classical divides each regularized coefficient by d! as it prints."""
    code, out = run_cli(["period", "--classical", *args], capsys)
    assert code == 0 and out == text + "\n"
    order = int(args[args.index("--n") + 1])
    code, out = run_cli(["period", "--classical", "--json", *args], capsys)
    assert code == 0
    assert out == json.dumps(
        {"coefficients": coefficients, "command": "period", "flavor": "classical", "order": order}
    ) + "\n"


def test_mutate_example(capsys):
    code, out = run_cli(
        ["mutate", "--w", "0,1,1", "--a", "x+1", "(x+1)^2/(x*y*z)+y+z"], capsys
    )
    assert code == 0
    assert out.strip() == "x*y+x*z+y+z+1/(x*y*z)"


def test_catalog_verify_example(capsys):
    code, out = run_cli(
        ["catalog", "verify", "--id", "MM-3.5", "--n", "10", "--threads", "1"], capsys
    )
    assert code == 0
    assert "pass MM-3.5" in out
    assert "V22" in out


def test_determinism(capsys):
    args = ["period", "--n", "6", "--json", "(x+y+1)^3/(x*y*z)+z"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_newton(capsys):
    code, out = run_cli(["newton", "--rank", "2", "x+y+1/(x*y)"], capsys)
    assert code == 0
    assert "(-1, -1)" in out and "(1, 0)" in out


def test_regularize(capsys):
    code, out = run_cli(["regularize", '["1", "0", "1/2", "1"]'], capsys)
    assert code == 0
    assert out.strip() == "[1, 0, 1, 6]"


def test_subst(capsys):
    code, out = run_cli(
        ["subst", "--rank", "2", "--params", "1", "--assign", "a1=1", "x+y+a1/(x*y)"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "x+y+1/(x*y)"


@pytest.mark.parametrize("assign", ["a1", "a1=x", "a1=1=2", "b1=2", "a0=1", "a1=1/0", "a2=1"])
def test_malformed_assignment_is_usage_error(capsys, assign):
    code = main(
        ["subst", "--rank", "2", "--params", "1", "--assign", assign, "x+y+a1/(x*y)"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: expected assignments like a1=1/2, got {assign!r}\n"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "lgforge.cli", "period"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_computation_error_exit_code(capsys):
    code = main(["mutate", "--w", "1,0", "--rank", "2", "--a", "1+y", "1/x"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: not mutable: graded piece at weight -1 is not divisible by the"
        " factor power (remainder term 1/x)\n"
    )


_FUZZ_TERMS = ["x", "y", "z", "1/x", "2/(x*y)", "(1+x)^2/y", "(x+y)/(y*z)", "3/z^2", "a1/x", "4"]
_FUZZ_JUNK = ["x/0", "(", "w", "1.5", "a9", "x^-", "+"]


def _sometimes(draw, malformed):
    """One of ``malformed`` in about one draw of six, else None."""
    return draw(st.sampled_from(malformed)) if draw(st.integers(0, 5)) == 0 else None


@st.composite
def mutate_argv(draw):
    """A mutate command line: mostly well formed (a primitive weight of the
    right length, a factor 1 + a variable the weight does not see, so that
    many lines mutate), with malformed ranks, weights, factors and
    expressions mixed in."""
    rank = _sometimes(draw, [0, -1, 5])
    rank = draw(st.integers(1, 3)) if rank is None else rank
    n = min(max(rank, 1), 3)
    weight = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n).filter(any))
    w = _sometimes(draw, ["1.5,0", "x", "2,4,0", "0,0,0", "1,0,0,0", ""])
    w = ",".join(map(str, weight)) if w is None else w
    free = [v for v, x in zip("xyz", weight) if x == 0]
    factor = _sometimes(draw, ["1+x+y", "a1+x", "1+", "0"]) or draw(
        st.sampled_from(["1"] + [f"1+{v}" for v in free] + [f"2*{v}-1" for v in free])
    )
    seen = set("xyz"[:n]) | {"a"}
    known = [t for t in _FUZZ_TERMS if set(t) & set("xyza") <= seen]
    terms = draw(st.lists(st.sampled_from(known), min_size=1, max_size=4))
    terms += [_sometimes(draw, _FUZZ_JUNK) or "1"]
    argv = ["mutate", "--rank", str(rank), "--params", draw(st.sampled_from(["1", "0"]))]
    # "--w -1,0" is an argparse usage error (a value that starts with "-")
    argv += [f"--w={w}"] if draw(st.booleans()) else ["--w", w]
    argv += ["--a", factor] + ["--invert"] * draw(st.booleans())
    return argv + ["--", "+".join(terms)]


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(mutate_argv())
def test_mutate_fuzz_exits_with_a_documented_code(argv):
    """Any mutate command line ends with exit 0, 1 or 2 (argparse's own
    exit counts as 2), and never with a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_missing_fan_file_is_usage_like_error(capsys):
    code, _ = run_cli(["toric", "hv", "--fan", "/nonexistent.json"], capsys)
    assert code == 2


@pytest.fixture()
def fan_file(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(
        json.dumps({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]]}), encoding="utf-8"
    )
    return str(path)


def test_toric_subcommands(capsys, fan_file):
    code, out = run_cli(["toric", "hv", "--fan", fan_file], capsys)
    assert code == 0 and out.strip() == "x+y+1/(x*y)"
    code, out = run_cli(["toric", "pair", "--fan", fan_file], capsys)
    assert code == 0 and out.strip() == "x+y+a1/(x*y)"
    code, out = run_cli(["toric", "qp", "--fan", fan_file, "--n", "6"], capsys)
    assert code == 0 and "6*a1" in out
    code, out = run_cli(["toric", "wpp", "--weights", "1,1,2"], capsys)
    assert code == 0


def test_toric_qp_without_effective_section_keeps_the_class(capsys, tmp_path):
    """P(2,3,5) has no effective section; the integral one still carries
    the curve class of the degree-10 relation (2,3,5)."""
    path = tmp_path / "p235.json"
    path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [1, 5], [-1, -3]]}), encoding="utf-8")
    code, out = run_cli(["toric", "qp", "--fan", str(path), "--n", "10"], capsys)
    assert code == 0
    assert out.strip() == "regularized [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2520*a1^-1]"
    code, _ = run_cli(["toric", "pair", "--fan", str(path)], capsys)
    assert code == 1


def test_toric_ci_fills_every_degree_on_a_weighted_ambient(capsys, tmp_path):
    """The sextic in P(1,1,1,1,3): degree-d relations reach a total of 7d."""
    path = tmp_path / "p11113.json"
    rays = [[-1, -1, -1, -3], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    path.write_text(json.dumps({"rank": 4, "rays": rays}), encoding="utf-8")
    code, out = run_cli(
        ["toric", "ci", "--fan", str(path), "--part", "0;1,2,3,4", "--n", "8"], capsys
    )
    assert code == 0
    assert out.strip() == (
        "regularized [1, 120*a1, 83160*a1^2, 81681600*a1^3, 93699005400*a1^4,"
        " 117386113965120*a1^5, 155667030019300800*a1^6,"
        " 214804163196079142400*a1^7, 305240072216678400087000*a1^8]"
    )


def test_toric_ci_non_ample_s0_is_computation_error(capsys, tmp_path):
    path = tmp_path / "p1p1.json"
    path.write_text(
        json.dumps({"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]}), encoding="utf-8"
    )
    code = main(["toric", "ci", "--fan", str(path), "--part", "0,2;1,3", "--n", "4"])
    assert code == 1
    assert "S_0 block is not ample" in capsys.readouterr().err


def test_toric_qp_past_the_monoid_budget_fails_fast(fan_file):
    proc = subprocess.run(
        [sys.executable, "-m", "lgforge.cli", "toric", "qp", "--fan", fan_file,
         "--n", "100000000"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert proc.returncode == 1
    assert "exceeds the budget" in proc.stderr


@pytest.mark.parametrize("sub", [["qp"], ["ci", "--part", "0;1,2"]])
def test_toric_order_past_the_budget_fails_fast(fan_file, sub):
    proc = subprocess.run(
        [sys.executable, "-m", "lgforge.cli", "toric", *sub, "--fan", fan_file, "--n", "30000"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: order 30000 exceeds the budget 1000\n"


P2_FAN = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]]}


@pytest.mark.parametrize(
    "fan, args",
    [
        ({"rays": P2_FAN["rays"]}, ["toric", "qp", "--n", "3"]),
        ([[1, 0], [0, 1], [-1, -1]], ["toric", "hv"]),
        ({**P2_FAN, "cones": [[0, 1], [1, 3]]}, ["toric", "qp", "--n", "3"]),
        ({"rank": 2, "rays": 5}, ["toric", "hv"]),
        ({"rank": 2, "rays": [[2, 0], [0, 1], [-1, -1]]}, ["toric", "hv"]),
        (P2_FAN, ["toric", "ci", "--part", "x;y", "--n", "3"]),
        ({"rank": 2, "rays": [[1.5, 0], [0, True], [-1, -1]]}, ["toric", "hv"]),
        ({**P2_FAN, "cones": [[0, 1.0]]}, ["toric", "qp", "--n", "3"]),
        ({**P2_FAN, "rank": 2.5}, ["toric", "hv"]),
        (P2_FAN, ["degenerate", "--d", "1/0,0,0"]),
    ],
    ids=[
        "no-rank",
        "top-level-list",
        "cone-index-out-of-range",
        "rays-not-a-list",
        "ray-not-primitive",
        "part-not-integers",
        "ray-not-integers",
        "cone-index-not-integer",
        "rank-not-integer",
        "d-zero-denominator",
    ],
)
def test_malformed_toric_input_is_usage_error(capsys, tmp_path, fan, args):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan), encoding="utf-8")
    code = main([*args, "--fan", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_fan_file_with_cones_is_refused(capsys, tmp_path):
    """Cones are those of the face fan of the rays, so a given "cones" key
    could only be redundant or wrong."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({**P2_FAN, "cones": [[0, 1], [1, 2], [2, 0]]}), encoding="utf-8")
    assert main(["toric", "qp", "--fan", str(path), "--n", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not a fan: unknown key 'cones':"
        " lgforge computes with the face fan of the rays\n"
    )


def test_degenerate(capsys, tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(
        json.dumps(
            {
                "rank": 3,
                "rays": [
                    [1, 0, 0],
                    [0, 1, 0],
                    [0, 0, 1],
                    [-1, -1, -1],
                    [-1, 0, 0],
                    [0, -1, 0],
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out = run_cli(
        ["degenerate", "--fan", str(path), "--d", "0,0,1,0,2,0"], capsys
    )
    assert code == 0
    assert "f_max rays: (0, 1, 0) (0, -1, 0)" in out


def test_markov(capsys):
    code, out = run_cli(["markov", "--triple", "1,1,1", "--slot", "2"], capsys)
    assert code == 0 and out.strip() == "(1, 1, 2)"


def test_chain_file_with_subst_step(capsys, tmp_path):
    steps = [{"kind": "subst", "assign": {"a1": "1", "a2": "0"}}]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(steps), encoding="utf-8")
    code, out = run_cli(
        [
            "chain",
            "--file",
            str(path),
            "--rank",
            "3",
            "--params",
            "2",
            "(x+y+1)^4*(a2*z+1)/(x*y*z) + a1*z",
        ],
        capsys,
    )
    assert code == 0
    from lgforge import parse

    final = out.strip().splitlines()[-1]
    assert parse(final, 3) == parse("(x+y+1)^4/(x*y*z) + z", 3)


def test_chain_file(capsys, tmp_path):
    steps = [
        {"kind": "coords", "matrix": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]},
        {"kind": "mutation", "w": [0, 0, -1], "a": "x+y+1"},
    ]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(steps), encoding="utf-8")
    code, out = run_cli(
        [
            "chain",
            "--file",
            str(path),
            "--n",
            "6",
            "x+y+z+x/z+y/z+x/(y*z)+y/(x*z)+2/z+2/y+2/x+z/(x*y)",
        ],
        capsys,
    )
    assert code == 0
    from lgforge import parse

    final = out.strip().splitlines()[-1]
    assert parse(final, 3) == parse("x+y+z+(x+y+1)^3/(x*y*z)", 3)


def test_chain_file_mutation_after_subst(capsys, tmp_path):
    steps = [
        {"kind": "subst", "assign": {"a1": "1"}},
        {"kind": "mutation", "w": [0, 1, 1], "a": "x+1"},
    ]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(steps), encoding="utf-8")
    code, out = run_cli(
        ["chain", "--file", str(path), "--params", "1", "(x+1)^2/(x*y*z)+y+a1*z"],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "x*y+x*z+y+z+1/(x*y*z)"


@pytest.mark.parametrize(
    "steps",
    [
        [{"kind": "mutation", "a": "x+1"}],
        [{"kind": "mutation", "w": [0, 1, 1]}],
        [{"kind": "coords"}],
        [{"kind": "subst", "assign": {"b1": "1"}}],
        [{"kind": "subst", "assign": {"a1": "1/0"}}],
        [{"kind": "subst", "assign": {"a1": 0.1}}],
        [{"kind": "subst", "assign": {"a1": True}}],
        [{"kind": "subst", "assign": {"a5": "1"}}],
        [{"kind": "twist", "w": [0, 1, 1]}],
        [{"w": [0, 1, 1], "a": "x+1"}],
        ["mutation"],
        {"kind": "mutation", "w": [0, 1, 1], "a": "x+1"},
        [{"kind": "mutation", "w": [0, 1.5, 1], "a": "x+1"}],
        [{"kind": "mutation", "w": [0, True, 1], "a": "x+1"}],
        [{"kind": "coords", "matrix": [[1, 0, 0], [0, 1.7, 0], [0, 0, 1]]}],
    ],
    ids=[
        "no-w",
        "no-a",
        "no-matrix",
        "bad-param-name",
        "zero-denominator",
        "float-value",
        "bool-value",
        "param-past-rank",
        "unknown-kind",
        "no-kind",
        "step-not-object",
        "not-a-list",
        "float-weight",
        "bool-weight",
        "float-matrix",
    ],
)
def test_malformed_chain_file_is_load_error(capsys, tmp_path, steps):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(steps), encoding="utf-8")
    code = main(["chain", "--file", str(path), "(x+1)^2/(x*y*z)+y+z"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


# parentheses nested five times deeper than the parser allows
DEEP = "(" * 1000 + "x" + ")" * 1000


def run_cold(args, timeout=60):
    """``python -m lgforge.cli`` in a fresh process, where a subcommand has
    imported only what it runs."""
    return subprocess.run(
        [sys.executable, "-m", "lgforge.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )


@pytest.mark.parametrize(
    "files, args, code",
    [
        ({"catalog.json": {"id": "not-a-list"}}, ["catalog", "list", "--catalog", "catalog.json"], 2),
        ({"chain.json": [{"kind": "twist"}]}, ["chain", "--file", "chain.json", "x+y+z"], 2),
        ({"fan.json": {"rays": [[1, 0], [0, 1]]}}, ["toric", "hv", "--fan", "fan.json"], 2),
        (
            {"fan.json": {**P2_FAN, "cones": [[0, 1], [1, 2], [2, 0]]}},
            ["toric", "qp", "--fan", "fan.json", "--n", "3"],
            2,
        ),
        ({}, ["regularize", "5"], 2),
        ({}, ["regularize", "[true]"], 2),
        ({}, ["regularize", "[null]"], 2),
        ({}, ["regularize", "[0.1]"], 2),
        ({}, ["markov", "--triple", "1,1"], 2),
        ({}, ["toric", "wpp", "--weights", "1,1"], 2),
        ({}, ["period", "--rank", "2", "x+*y"], 1),
        ({}, ["mutate", "--w", "1,0", "--rank", "2", "--a", "1+y", "1/x"], 1),
        ({"fan.json": P2_FAN}, ["toric", "qp", "--fan", "fan.json", "--n", "30000"], 1),
        ({}, ["period", "--rank", "1", DEEP], 1),
        (
            {"catalog.json": [{"id": "deep", "dim": 1, "picard_rank": 1, "model": DEEP}]},
            ["catalog", "list", "--catalog", "catalog.json"],
            2,
        ),
        (
            {"catalog.json": [{"id": "P2", "dim": 2, "picard_rank": 1, "checks": [
                {"kind": "toric_oracle", "rays": P2_FAN["rays"], "order": 1001}]}]},
            ["catalog", "verify", "--catalog", "catalog.json", "--threads", "1"],
            1,
        ),
    ],
    ids=[
        "catalog-file",
        "chain-file",
        "fan-file",
        "fan-file-with-cones",
        "regularize-not-a-list",
        "regularize-bool",
        "regularize-null",
        "regularize-float",
        "markov-two-entries",
        "wpp-two-weights",
        "expression",
        "not-mutable",
        "order-budget",
        "deep-nesting",
        "deep-catalog-model",
        "toric-oracle-order-budget",
    ],
)
def test_cold_process_exit_codes(tmp_path, files, args, code):
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content), encoding="utf-8")
    proc = run_cold([str(tmp_path / a) if a in files else a for a in args])
    assert proc.returncode == code
    assert sum(line.startswith("error: ") for line in proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["period", "--rank", "1", "--n", "-1", "x"],
        ["chain", "--file", "chain.json", "--n", "-1", "x"],
        ["toric", "qp", "--fan", "fan.json", "--n", "-1"],
        ["toric", "ci", "--fan", "fan.json", "--part", "0;1,2", "--n", "-1"],
        ["catalog", "verify", "--n", "-1"],
        ["period", "--rank", "1", "--n", "1.5", "x"],
    ],
    ids=["period", "chain", "toric-qp", "toric-ci", "catalog-verify", "period-fraction"],
)
def test_order_must_be_a_nonnegative_integer(args):
    """Every --n is read by one argument type, so a negative or fractional
    order is a usage error (exit 2) before any command runs.  argparse
    reports it after the usage line, prefixed with the program name."""
    proc = run_cold(args)
    assert proc.returncode == 2
    assert "argument --n: expected a nonnegative integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_power_past_the_coefficient_budget_exits_one():
    proc = run_cold(["period", "--rank", "1", "(3*x)^30000000"], timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "more than 262144 bits" in proc.stderr


def test_period_fast_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["period", "--fast", "x+1/x", "--rank", "1"])
    assert exit_info.value.code == 2


def test_catalog_verify_json_output_is_pinned(capsys):
    """Renders and witnesses of `catalog verify --n 10 --json` are fixed;
    only the per-entry timings vary between runs."""
    code, out = run_cli(["catalog", "verify", "--n", "10", "--threads", "1", "--json"], capsys)
    assert code == 0
    golden = (Path(__file__).parent / "data/catalog_verify_n10.json").read_text(encoding="utf-8")
    assert re.sub(r', "seconds": [0-9.e+-]+', "", out) == golden


P1XP2_FAN = {"rank": 3, "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, -1]]}

JSON_COMMANDS = [
    ["period", "--n", "4", "--json", "x+y+1/(x*y)", "--rank", "2"],
    ["period", "--classical", "--json", "--rank", "2", "--n", "4", "x+y+1/(x*y)"],
    ["regularize", "--json", '["1", "2"]'],
    ["mutate", "--json", "--w", "0,1,1", "--a", "x+1", "(x+1)^2/(x*y*z)+y+z"],
    ["coords", "--json", "--rank", "2", "--matrix", "0,1;1,0", "x+2*y"],
    ["subst", "--json", "--rank", "2", "--params", "1", "--assign", "a1=1", "a1*x+y"],
    ["newton", "--json", "--rank", "2", "x+y+1/(x*y)"],
    ["markov", "--json", "--triple", "1,1,2", "--slot", "1"],
    ["catalog", "list", "--json", "--id", "dP-*"],
    ["catalog", "verify", "--json", "--id", "P3", "--n", "4", "--threads", "1"],
    ["toric", "fibre", "--json", "--fan", "p1p2.json", "--projection", "1,0,0"],
]


@pytest.mark.parametrize("args", JSON_COMMANDS, ids=lambda a: a[0] + "-" + a[1])
def test_json_outputs_validate_against_schema(args, capsys, tmp_path):
    (tmp_path / "p1p2.json").write_text(json.dumps(P1XP2_FAN), encoding="utf-8")
    code, out = run_cli([str(tmp_path / a) if a.endswith(".json") else a for a in args], capsys)
    assert code == 0
    payload = json.loads(out)
    validate(payload, SCHEMA)


def test_json_toric_commands_validate(capsys, fan_file):
    for args in (
        ["toric", "hv", "--json", "--fan", fan_file],
        ["toric", "pair", "--json", "--fan", fan_file],
        ["toric", "qp", "--json", "--fan", fan_file, "--n", "4"],
        ["toric", "wpp", "--json", "--weights", "1,1,2"],
    ):
        code, out = run_cli(args, capsys)
        assert code == 0
        validate(json.loads(out), SCHEMA)


def test_json_remaining_commands_validate(capsys, tmp_path):
    fan = tmp_path / "p4.json"
    fan.write_text(
        json.dumps(
            {
                "rank": 4,
                "rays": [
                    [1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 1],
                    [-1, -1, -1, -1],
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out = run_cli(
        ["toric", "ci", "--json", "--fan", str(fan), "--part", "3,4;0,1,2", "--n", "4"],
        capsys,
    )
    assert code == 0
    validate(json.loads(out), SCHEMA)

    bl2 = tmp_path / "bl2.json"
    bl2.write_text(
        json.dumps(
            {
                "rank": 3,
                "rays": [
                    [1, 0, 0],
                    [0, 1, 0],
                    [0, 0, 1],
                    [-1, -1, -1],
                    [-1, 0, 0],
                    [0, -1, 0],
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out = run_cli(
        ["degenerate", "--json", "--fan", str(bl2), "--d", "0,0,1,0,2,0"], capsys
    )
    assert code == 0
    validate(json.loads(out), SCHEMA)

    steps = tmp_path / "steps.json"
    steps.write_text(
        json.dumps([{"kind": "mutation", "w": [0, 1, 1], "a": "x+1"}]),
        encoding="utf-8",
    )
    code, out = run_cli(
        ["chain", "--json", "--file", str(steps), "--n", "4", "(x+1)^2/(x*y*z)+y+z"],
        capsys,
    )
    assert code == 0
    validate(json.loads(out), SCHEMA)
