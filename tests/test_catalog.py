"""Catalog loading, round-trips, verification and negative controls."""

import json
from dataclasses import replace

import pytest

from lgforge import catalog, load_catalog, parse, verify_all, verify_entry
from lgforge.catalog import CatalogError, default_catalog_path
from lgforge.cli import main


@pytest.fixture(scope="module")
def entries():
    return load_catalog()


def test_counts(entries):
    by_prefix = {
        "rank1": [e for e in entries if e.dim == 3 and e.picard_rank == 1],
        "dP": [e for e in entries if e.id.startswith("dP-")],
        "MM-2": [e for e in entries if e.id.startswith("MM-2.")],
        "MM-3": [e for e in entries if e.id.startswith("MM-3.")],
        "MM-4": [e for e in entries if e.id.startswith("MM-4.")],
    }
    assert len(by_prefix["rank1"]) == 17
    assert len(by_prefix["dP"]) == 8
    assert len(by_prefix["MM-2"]) == 36
    assert len(by_prefix["MM-3"]) == 31
    assert len(by_prefix["MM-4"]) == 2
    assert len(entries) == 94


def test_ids_unique_and_sorted(entries):
    ids = [e.id for e in entries]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_models_parse(entries):
    for e in entries:
        f = e.parse_model
        if e.model is not None:
            assert f is not None and not f.is_zero
        g = e.parse_param_model
        if e.param_model is not None:
            assert g is not None


def test_round_trip(entries, tmp_path):
    path = tmp_path / "copy.json"
    path.write_text(json.dumps([e.to_json() for e in entries]), encoding="utf-8")
    again = load_catalog(path)
    assert again == entries


def test_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    assert load_catalog(path) == []


def test_unparseable_model_names_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            [
                {
                    "id": "broken",
                    "dim": 2,
                    "picard_rank": 1,
                    "model": "x + (",
                    "params": [],
                    "checks": [],
                }
            ]
        ),
        encoding="utf-8",
    )
    with pytest.raises(CatalogError, match="broken"):
        load_catalog(path)


@pytest.mark.parametrize(
    "check, message",
    [
        ({"kind": "exact_equal", "left": "x"}, "check 1 (exact_equal): missing key 'right'"),
        ({"kind": "period_match", "source": "x"}, "missing key 'target' or 'target_id'"),
        ({"kind": "toric_oracle"}, "missing key 'rays'"),
        ({"left": "x", "right": "x"}, "check 1: unknown check kind None"),
        ({"kind": "period_match", "target": "x"}, "missing key 'source', and the entry has no model"),
        ({"kind": "toric_oracle", "rays": []}, "check 1 (toric_oracle): 'rays' must be a non-empty"),
        ({"kind": "toric_oracle", "rays": [[1, 0], [-1]]}, "equal-length integer vectors"),
        ({"kind": "toric_oracle", "rays": [[1], ["-1"]]}, "equal-length integer vectors"),
        ({"kind": "toric_oracle", "rays": [[]]}, "equal-length integer vectors"),
        (
            {"kind": "direction_degeneration_edge", "rays": [[1], [-1]], "d": ["0"],
             "min_support": [], "max_support": []},
            "check 1 (direction_degeneration_edge): 'd' must give one rational per ray",
        ),
        (
            {"kind": "direction_degeneration_edge", "rays": [[1], [-1]], "d": ["0", "x"],
             "min_support": [], "max_support": []},
            "'d' must give one rational per ray",
        ),
        (
            {"kind": "period_match", "target": "x", "source": "x", "order": "ten"},
            "check 1 (period_match): 'order' must be a non-negative integer",
        ),
        (
            {"kind": "period_match", "target": "x", "source": "x", "order": True},
            "check 1 (period_match): 'order' must be a non-negative integer",
        ),
        (
            {"kind": "mutation_chain", "start": "x", "steps": [], "expected": "x", "order": -1},
            "check 1 (mutation_chain): 'order' must be a non-negative integer",
        ),
        (
            {"kind": "toric_oracle", "rays": [[1], [-1]], "order": 8.0},
            "check 1 (toric_oracle): 'order' must be a non-negative integer",
        ),
        (
            {"kind": "direction_degeneration_edge", "rays": [[1], [-1]], "d": ["1/0", "0"],
             "min_support": [], "max_support": []},
            "'d' must give one rational per ray",
        ),
        (
            {"kind": "direction_degeneration_edge", "rays": [[1], [-1]], "d": [0.5, "0"],
             "min_support": [], "max_support": []},
            "'d' must give one rational per ray",
        ),
        (
            {"kind": "parameter_limit_edge", "expect": "x", "direction": ["1/0"]},
            "check 1 (parameter_limit_edge): 'direction' must be a list of rationals",
        ),
        (
            {"kind": "parameter_limit_edge", "expect": "x", "direction": [0.5]},
            "'direction' must be a list of rationals",
        ),
        (
            {"kind": "parameter_limit_edge", "expect": "x", "subst": {"a1": 0.1}},
            "check 1 (parameter_limit_edge): 'subst' must map parameter names to rationals",
        ),
        (
            {"kind": "parameter_limit_edge", "expect": "x", "subst": {"a1": True}},
            "'subst' must map parameter names to rationals",
        ),
        (
            {"kind": "exact_equal", "left": {"param_model_at": {"a1": 0.1}}, "right": "x"},
            "check 1 (exact_equal): 'param_model_at' in 'left' must map parameters of the entry",
        ),
        (
            {"kind": "exact_equal", "left": "x", "right": {"param_model_at": {"a1": "1/0"}}},
            "'param_model_at' in 'right' must map parameters of the entry",
        ),
        (
            {"kind": "parameter_limit_edge", "expect": {"param_model_at": {"a2": "1"}}},
            "'param_model_at' in 'expect' must map parameters of the entry",
        ),
        (
            {"kind": "mutation_chain", "start": {"param_model_at": ["a1", 1]}, "steps": [],
             "expected": "x"},
            "'param_model_at' in 'start' must map parameters of the entry",
        ),
        (
            {"kind": "toric_oracle", "rays": [[2, 0], [0, 1], [-1, -1]]},
            "check 1 (toric_oracle): 'rays' must be a non-empty list of equal-length integer"
            " vectors that span a fan (ray (2, 0) is not primitive)",
        ),
        (
            {"kind": "toric_oracle", "rays": [[1, 0], [-1, 0]]},
            "(rays do not span the ambient lattice)",
        ),
        (
            {"kind": "direction_degeneration_edge", "rays": [[1], [-1]], "d": ["1", "0"],
             "min_support": 5, "max_support": []},
            "check 1 (direction_degeneration_edge): 'min_support' must be a list of integer vectors",
        ),
        (
            {"kind": "parameter_limit_edge", "expect": "x", "fibre_weight": ["u", 1]},
            "check 1 (parameter_limit_edge): 'fibre_weight' must give one integer per variable",
        ),
        (
            {"kind": "parameter_limit_edge", "expect": "x", "dying": ["a7"]},
            "'dying' must list parameters of the entry (no parameter 'a7')",
        ),
        (
            {"kind": "mutation_chain", "start": "x", "expected": "x",
             "steps": [{"kind": "subst", "assign": {"a1": 0.1}}]},
            "check 1 (mutation_chain): 'steps' must be a valid chain (chain step 0: expected"
            " an integer or a string rational, got 0.1)",
        ),
        (
            {"kind": "mutation_chain", "start": "x", "expected": "x",
             "steps": [{"kind": "mutation", "a": "1"}]},
            "(chain step 0: missing key 'w')",
        ),
        (
            {"kind": "exact_equal", "left": "x+1", "right": "x", "modulo_constant": "no"},
            "check 1 (exact_equal): 'modulo_constant' must be true or false",
        ),
        (
            {"kind": "period_match", "source": "x", "target_id": "nope"},
            "check 1 (period_match): no entry 'nope' with a model",
        ),
        (
            {"kind": "parameter_limit_edge", "expect_id": "bad-check"},
            "check 1 (parameter_limit_edge): no entry 'bad-check' with a model",
        ),
        (
            {"kind": "toric_oracle", "rays": [[1], [-1]], "match_model": True},
            "check 1 (toric_oracle): 'match_model' is set, and the entry has no model",
        ),
        # a misspelt flag must not be ignored
        (
            {"kind": "exact_equal", "left": "x+1", "right": "x", "modulo_constnat": True},
            "check 1 (exact_equal): unknown key 'modulo_constnat'",
        ),
        # a float weight must not be truncated to an integer
        (
            {"kind": "mutation_chain", "start": "x", "expected": "x",
             "steps": [{"kind": "mutation", "w": [1.5], "a": "1"}]},
            "(chain step 0: 'w' must hold JSON integers, got [1.5])",
        ),
    ],
)
def test_check_payload_validated_at_load(tmp_path, capsys, check, message):
    entry = {
        "id": "bad-check",
        "dim": 1,
        "picard_rank": 1,
        "model": None,
        "params": ["a1"],
        "param_model": "a1*x",
        "checks": [{"kind": "exact_equal", "left": "x", "right": "x"}, check],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(CatalogError, match="bad-check") as err:
        load_catalog(path)
    assert message in str(err.value)
    code = main(["catalog", "verify", "--catalog", str(path), "--threads", "1"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"dim": 2.9}, "entry 'bad-entry': 'dim' must be a non-negative integer"),
        ({"picard_rank": "1"}, "'picard_rank' must be a non-negative integer"),
        ({"params": "a1"}, "'params' must be a list of strings"),
        # a string flag must not read as true: the target is the source + 1
        (
            {"modulo_constant": "false",
             "checks": [{"kind": "period_match", "source": "x+1/x", "target": "x+1/x+1"}]},
            "entry 'bad-entry': 'modulo_constant' must be true or false",
        ),
        ({"geometric_only": "no"}, "'geometric_only' must be true or false"),
        ({"model": 5}, "'model' must be a string or null"),
        ({"modulo_constnat": True}, "entry 'bad-entry': unknown key 'modulo_constnat'"),
        (
            {"param_model": None,
             "checks": [{"kind": "exact_equal", "left": {"param_model_at": {"a1": "1"}},
                         "right": "x"}]},
            "check 0 (exact_equal): the entry has no param_model",
        ),
    ],
)
def test_entry_fields_validated_at_load(tmp_path, capsys, fields, message):
    entry = {
        "id": "bad-entry",
        "dim": 1,
        "picard_rank": 1,
        "model": "x+1/x",
        "params": ["a1"],
        "param_model": "a1*x",
        "checks": [],
        **fields,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(CatalogError, match="bad-entry") as err:
        load_catalog(path)
    assert message in str(err.value)
    code = main(["catalog", "verify", "--catalog", str(path), "--threads", "1"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_entry_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(["P3"]), encoding="utf-8")
    with pytest.raises(CatalogError, match="not a JSON object"):
        load_catalog(path)


def test_duplicate_ids_rejected(tmp_path):
    entry = {
        "id": "dup",
        "dim": 2,
        "picard_rank": 1,
        "model": "x + 1/x",
        "params": [],
        "checks": [],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([entry, dict(entry)]), encoding="utf-8")
    with pytest.raises(CatalogError, match="dup"):
        load_catalog(path)


def test_verify_single_identification(entries):
    by_id = {e.id: e for e in entries}
    report = verify_entry(by_id["MM-2.8"], 10, entries)
    assert report.ok
    kinds = [c.kind for c in report.checks]
    assert "period_match" in kinds


def test_vacuous_at_order_zero(entries):
    by_id = {e.id: e for e in entries}
    report = verify_entry(by_id["MM-3.21"], 0, entries)
    assert report.ok


def test_prefix_filter():
    reports = verify_all(order=0, id_filter="MM-2.")
    assert len(reports) == 36
    assert all(r.entry_id.startswith("MM-2.") for r in reports)


def test_corrupted_coefficient_fails_with_witness(entries, tmp_path):
    """Bumping one coefficient of the identification source must break the
    period match with a witness degree within the comparison order."""
    raw = json.loads(default_catalog_path().read_text(encoding="utf-8"))
    target = next(e for e in raw if e["id"] == "MM-2.8")
    for check in target["checks"]:
        if check["kind"] == "period_match":
            check["source"] = "(x*y+y*z+x*z+2)^2/(x*y*z)"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    corrupted = load_catalog(path)
    by_id = {e.id: e for e in corrupted}
    report = verify_entry(by_id["MM-2.8"], 10, corrupted)
    assert not report.ok
    bad = [c for c in report.checks if c.kind == "period_match" and not c.ok]
    assert bad and bad[0].witness_degree is not None
    assert bad[0].witness_degree <= 10


def test_failing_chain_check_has_witness_degree(tmp_path):
    """A mutation_chain check whose expected period is wrong fails with the
    degree of the first mismatch."""
    raw = json.loads(default_catalog_path().read_text(encoding="utf-8"))
    target = next(e for e in raw if e["id"] == "MM-2.5")  # compares modulo constant
    for check in target["checks"]:
        if check["kind"] == "mutation_chain":
            check["expected"] = check["expected"] + "+x"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    corrupted = load_catalog(path)
    by_id = {e.id: e for e in corrupted}
    report = verify_entry(by_id[target["id"]], 10, corrupted)
    bad = [c for c in report.checks if c.kind == "mutation_chain" and not c.ok]
    assert bad and bad[0].witness_degree is not None
    assert f"first mismatch at degree {bad[0].witness_degree}: " in bad[0].detail


def test_period_match_failure_witness_is_pinned(tmp_path):
    """The streamed comparison reports the witness that comparing the full
    periods gave: the term x^2*y/2 first pairs to a constant in degree 4,
    and the shift 1/3 is fractional."""
    entry = {
        "id": "pinned-witness",
        "dim": 2,
        "picard_rank": 2,
        "model": "x+1/x+y+1/y",
        "checks": [{"kind": "period_match", "target": "x+1/x+y+1/y+x^2*y/2+1/3", "order": 8}],
    }
    path = tmp_path / "witness.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    (check,) = verify_entry(load_catalog(path)[0], 10).checks
    assert (check.ok, check.witness_degree, check.detail) == (
        False,
        4,
        "period differs from expression first at degree 4 (3133/81 vs 3619/81)",
    )


def test_checks_report_their_seconds(entries, capsys):
    """Each check is timed; the timing is not part of a report's equality."""
    report = verify_entry(next(e for e in entries if e.id == "MM-2.5"), 10, entries)
    assert len(report.checks) > 1
    assert all(c.seconds > 0 for c in report.checks)
    assert sum(c.seconds for c in report.checks) <= report.seconds
    assert replace(report.checks[0], seconds=-1.0) == report.checks[0]
    code = main(["catalog", "verify", "--id", "MM-2.5", "--n", "6", "--threads", "1", "--json"])
    assert code == 0
    (entry,) = json.loads(capsys.readouterr().out)["entries"]
    assert [type(c["seconds"]) for c in entry["checks"]] == [float] * len(report.checks)


def test_checks_share_the_parsed_models_without_changing_them(monkeypatch):
    """Two verify_all passes over one set of entries give identical reports,
    and every cached model still equals a fresh parse afterwards."""
    entries = load_catalog()
    monkeypatch.setattr(catalog, "load_catalog", lambda path=None: entries)
    first, second = verify_all(10), verify_all(10)
    assert [replace(r, seconds=0.0) for r in first] == [replace(r, seconds=0.0) for r in second]
    assert all(r.ok for r in first)
    for e in entries:
        for text, cached in ((e.model, e.parse_model), (e.param_model, e.parse_param_model)):
            if text is not None:
                assert cached == parse(text, e.rank, e.param_rank), e.id
