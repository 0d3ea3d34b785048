"""Cross-cutting interface behaviour: worker pools, env override, fan files."""

import concurrent.futures
import json
import os

import pytest

from lgforge import FanData, fibre_fan, load_catalog, parse, verify_all
from lgforge.cli import main


def test_verify_all_with_worker_pool_matches_serial():
    serial = verify_all(order=4, id_filter="dP-*", workers=1)
    parallel = verify_all(order=4, id_filter="dP-*", workers=2)
    assert [r.entry_id for r in serial] == [r.entry_id for r in parallel]
    assert [r.ok for r in serial] == [r.ok for r in parallel]
    assert all(r.ok for r in parallel)


@pytest.mark.parametrize(
    "threads, cores, pools",
    [(5000, 64, [8]), (5000, 3, [3]), (5000, None, []), (2, 64, [2]), (1, 64, [])],
)
def test_worker_count_is_clamped_to_entries_and_cores(monkeypatch, threads, cores, pools):
    """The eight dP entries never get more workers than entries or cores.
    The stand-in pool records its size and starts no process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    reports = verify_all(order=2, id_filter="dP-*", workers=threads)
    assert started == pools
    assert len(reports) == 8 and all(r.ok for r in reports)


@pytest.mark.parametrize("threads", ["0", "-3", "abc"])
def test_threads_below_one_is_usage_error(capsys, threads):
    with pytest.raises(SystemExit) as exit_info:
        main(["catalog", "verify", "--threads", threads])
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_verify_all_reads_the_file_on_every_call(tmp_path):
    check = {"kind": "period_match", "source": "x + y + 1/(x*y)", "target": "x + y + 1/(x*y)", "order": 6}
    entry = {
        "id": "rewritten",
        "dim": 2,
        "picard_rank": 1,
        "model": "x + y + 1/(x*y)",
        "params": [],
        "checks": [check],
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    assert [r.ok for r in verify_all(path=path, workers=1)] == [True]
    check["source"] = "x + y + 2/(x*y)"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    assert [r.ok for r in verify_all(path=path, workers=1)] == [False]


def test_env_var_overrides_catalog_path(tmp_path, capsys, monkeypatch):
    entry = {
        "id": "custom",
        "dim": 2,
        "picard_rank": 1,
        "model": "x + y + 1/(x*y)",
        "params": [],
        "checks": [],
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    monkeypatch.setenv("LGFORGE_CATALOG", str(path))
    code = main(["catalog", "list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "custom" in out and "MM-2.8" not in out


def test_catalog_failure_and_load_error_exit_codes(tmp_path, capsys):
    failing = {
        "id": "will-fail",
        "dim": 2,
        "picard_rank": 1,
        "model": "x + y + 1/(x*y)",
        "params": [],
        "checks": [
            {
                "kind": "period_match",
                "source": "x + y + 1/(x*y)",
                "target": "x + y + 2/(x*y)",
                "order": 6,
            }
        ],
    }
    path = tmp_path / "failing.json"
    path.write_text(json.dumps([failing]), encoding="utf-8")
    code = main(["catalog", "verify", "--catalog", str(path), "--threads", "1"])
    capsys.readouterr()
    assert code == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    code = main(["catalog", "verify", "--catalog", str(broken), "--threads", "1"])
    capsys.readouterr()
    assert code == 2


def test_fan_json_round_trip():
    fan = FanData(2, ((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert fan.to_json() == {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]}
    again = FanData.from_json(fan.to_json())
    assert again == fan


def test_fibre_fan_keeps_the_rays_in_the_kernel():
    fan = FanData(3, ((0, 1, 0), (0, 0, 1), (0, -1, -1), (1, 0, 0), (-1, 0, 0)))
    sub = fibre_fan(fan, [[1, 0, 0]])
    assert set(sub.rays) == {(1, 0), (0, 1), (-1, -1)}


def test_exact_vs_polytope_equality_are_distinct_notions():
    f = parse("x + y + 1/(x*y)", 2)
    g = parse("x + 2*y + 1/(x*y) + 1", 2)
    assert f != g
    assert f.newton_polytope() == g.newton_polytope()


def test_catalog_entries_have_declared_dimensions():
    for entry in load_catalog():
        assert entry.dim in (2, 3)
        assert 1 <= entry.picard_rank <= 7
