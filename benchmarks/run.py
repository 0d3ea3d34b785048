"""lgforge benchmark: one workload per process, a closed loop with one caller.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog, periods, structure, cli (see BENCHMARK.json and
``workloads.py``).  The library is imported from ``src/`` beside this
directory.  Until ``--seconds`` have elapsed, full passes over the items,
each in a seeded order, alternate with timed set-ups (a fresh import of
lgforge, input generation from the seed, oracle precomputation); each pass
runs on the newest set-up.  Every output is checked exactly after its pass,
outside the timed region.

``wall_s`` is the mean of the complete passes and each item's latency the
mean of its samples: the host's speed flips between levels some tens of
percent apart every few seconds, and a median then jumps between levels
where a mean moves with the share of time spent at each.  ``item_p50_ms``
and ``item_tail_ms`` are the median and the highest percentile with at
least ten items beyond it of those item latencies; ``setup_s`` is the
median of the set-ups.
With ``--trace 0`` the last line of stdout reports them.  With
``--trace 1`` untraced passes are followed by one traced set-up and one
traced full pass, and the last line reports the per-layer metrics of
``tracing.py``.  A run record (machine, commit, seed, input sizes, hull
scaling, CLI cold-start split) is printed before that line and written
under ``benchmarks/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SHARE = 0.15
TRACE_UNTRACED_SHARE = 0.4
COLD_START_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


class SourceMissing(RuntimeError):
    pass


def fresh_import():
    """Import lgforge from ../src anew, dropping any loaded copy first."""
    if not (SRC / "lgforge" / "__init__.py").is_file():
        raise SourceMissing(f"no lgforge package under {SRC}")
    for name in [n for n in sys.modules if n == "lgforge" or n.startswith("lgforge.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lg = importlib.import_module("lgforge")
    if Path(lg.__file__).resolve().parent != (SRC / "lgforge").resolve():
        raise SourceMissing(f"lgforge was imported from {lg.__file__}, not {SRC}")
    return lg


def run_pass(workload, lg, state, seed, index, deadline=None, tracer=None):
    """One pass over the items in a seeded order, checked after it.

    With a deadline the pass stops before the first item that would start
    after it (a partial pass).  Returns the wall seconds of a complete pass
    (None otherwise), each item's start and end time and the failed ids.
    """
    items = list(state["items"])
    random.Random(f"{seed}/{index}").shuffle(items)
    results = []
    start = clock()
    for item in items:
        if deadline is not None and clock() >= deadline:
            break
        if tracer is not None:
            tracer.item = item.id
        t0 = clock()
        try:
            out, err = workload.run(lg, state, item), None
        except Exception as exc:  # an item that raises is a failed item
            out, err = None, exc
        results.append((item, out, err, t0, clock()))
    wall = clock() - start if len(results) == len(items) else None
    if tracer is not None:
        tracer.item = "harness"
    failed = []
    for item, out, err, _, _ in results:
        ok = False
        if err is None:
            try:
                ok = bool(workload.check(item, out))
            except Exception:  # a checker that raises on the output rejects it
                ok = False
        if not ok:
            failed.append(item.id if err is None else f"{item.id}: {type(err).__name__}: {err}")
    return {
        "wall": wall,
        "latencies": {item.id: t1 - t0 for item, _, _, t0, t1 in results},
        "intervals": {item.id: (t0, t1) for item, _, _, t0, t1 in results},
        "failed": failed,
    }


def setup_once(workload, seed):
    """A fresh import of lgforge and the workload's set-up, timed."""
    t0 = clock()
    lg = fresh_import()
    state = workload.setup(lg, seed)
    return lg, state, clock() - t0


def run_passes(workload, seed, seconds):
    """Set-ups and full passes until ``seconds`` have elapsed.

    The first set-up and the first pass always complete.  Before each later
    pass, set-ups repeat until they have taken SETUP_SHARE of the elapsed
    time, so set-up samples are spread over the run like the item samples.
    A collection before each pass clears the modules and inputs of earlier
    set-ups, so that neither the pass nor the peak memory carries them.
    Returns the newest set-up, every set-up time and the passes.
    """
    start = clock()
    deadline = start + seconds
    setup_times, passes = [], []
    while True:
        while not setup_times or (
            sum(setup_times) < SETUP_SHARE * (clock() - start) and clock() < deadline
        ):
            lg, state, seconds_taken = setup_once(workload, seed)
            setup_times.append(seconds_taken)
        if passes and clock() >= deadline:
            return lg, state, setup_times, passes
        gc.collect()
        passes.append(run_pass(
            workload, lg, state, seed, len(passes), deadline=deadline if passes else None
        ))


def item_samples(passes):
    """Latencies of each item over the passes that ran it."""
    samples = {}
    for p in passes:
        for item_id, lat in p["latencies"].items():
            samples.setdefault(item_id, []).append(lat)
    return samples


def item_latencies(passes):
    """Each item's mean latency over the passes that ran it."""
    return {item_id: statistics.fmean(v) for item_id, v in item_samples(passes).items()}


def pass_wall(passes):
    """Mean seconds of the complete passes."""
    return statistics.fmean(p["wall"] for p in passes if p["wall"] is not None)


def end_to_end(workload, state, passes, setup_times, rss_mb):
    """End-to-end metrics; latency figures cover the items the workload times."""
    latency = item_latencies(passes)
    typical = sorted(latency[item.id] for item in state["items"] if item.timed)
    n = len(typical)
    p_tail = stats.tail_percentile(n)
    if p_tail is None:
        raise ValueError(f"{n} timed items per pass are too few for a tail percentile")
    return {
        "wall_s": pass_wall(passes),
        "item_p50_ms": 1e3 * statistics.median(typical),
        "item_tail_ms": 1e3 * stats.percentile(typical, p_tail),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }, {
        "tail_percentile": p_tail,
        "items_per_pass": len(state["items"]),
        "timed_items": n,
        "passes": len(passes),
        "complete_passes": sum(1 for p in passes if p["wall"] is not None),
        "samples_per_item": sorted({len(v) for v in item_samples(passes).values()}),
        "setups": len(setup_times),
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def input_summary(items):
    """Item counts by kind and the ranges of the sizes in the run record."""
    kinds, ranges = {}, {}
    for item in items:
        kinds[item.kind] = kinds.get(item.kind, 0) + 1
        for key, value in item.info.items():
            if isinstance(value, int) and not isinstance(value, bool):
                lo, hi = ranges.get(key, (value, value))
                ranges[key] = (min(lo, value), max(hi, value))
    orders = sorted({item.info["order"] for item in items if "order" in item.info})
    return {
        "items": len(items),
        "kinds": kinds,
        "ranges": {k: list(v) for k, v in sorted(ranges.items())},
        "orders": orders,
    }


def source_identity():
    """Commit from .git when present, and a digest of the library source."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted((SRC / "lgforge").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return commit, h.hexdigest()


def cold_start_split(state, passes):
    """Bare interpreter, lgforge.cli import, and the rest of each CLI run (ms)."""

    def median_ms(argv):
        times = []
        for _ in range(COLD_START_REPEATS):
            t0 = clock()
            subprocess.run(argv, env=state["env"], capture_output=True, check=True, timeout=60)
            times.append(clock() - t0)
        return 1e3 * statistics.median(times)

    interp = median_ms([sys.executable, "-c", "pass"])
    imported = median_ms([sys.executable, "-c", "import lgforge.cli"])
    runs = list(item_latencies(passes).values())
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.command_ms": statistics.median(runs) * 1e3 - imported,
    }


def traced_run(workload, seed, seconds, record):
    """Untraced passes, then one traced set-up and pass; per-layer metrics.

    Returns the metrics, every pass run, whether the spans nest consistently
    and no wrapper was left behind, and the items.
    """
    lg, state, _, untraced = run_passes(workload, seed, TRACE_UNTRACED_SHARE * seconds)
    untraced_wall = pass_wall(untraced)

    tracer = tracing.Tracer()
    record["trace_patches"] = tracer.install()
    try:
        tracer.item = "setup"
        state = workload.setup(lg, seed)
        first_pass = len(tracer.spans)
        traced = run_pass(workload, lg, state, seed, len(untraced), tracer=tracer)
    finally:
        tracer.restore()
    leftovers = tracing.leftover_wrappers()
    spans = tracer.spans
    setup_idx = range(first_pass)
    pass_idx = [i for i in range(first_pass, len(spans)) if spans[i][tracing.ITEM] != "harness"]
    nesting = tracing.nesting_errors(spans, traced["intervals"])

    metrics = tracing.layer_metrics(spans, pass_idx)
    setup_layers = tracing.layer_metrics(spans, setup_idx)
    for layer in tracing.LAYERS:
        metrics[f"setup.{layer}.self_s"] = setup_layers[f"{layer}.self_s"]
    metrics["catalog.load_s"] = sum(
        spans[i][tracing.END] - spans[i][tracing.START]
        for i in setup_idx if spans[i][tracing.OP] == "load"
    )
    # Self times over a span tree sum to its top-level spans, so the layers
    # and the harness account for the traced wall by construction; what can
    # go wrong is the tree itself, which nesting_errors checks.
    metrics["harness.self_s"] = traced["wall"] - tracing.top_level_seconds(spans, pass_idx)
    metrics["trace.wall_s"] = traced["wall"]
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = traced["wall"] / untraced_wall - 1
    metrics["trace.spans"] = len(pass_idx)
    cli = {"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0}
    if workload.name == "cli":
        cli = cold_start_split(state, untraced)
    metrics.update(cli)

    record.update({
        "untraced_passes": len(untraced),
        "harness_frac": metrics["harness.self_s"] / traced["wall"],
        "nesting_errors": nesting[:20],
        "hull_by_points": tracing.hull_buckets(spans, pass_idx),
        "leftover_wrappers": leftovers,
        "setup_spans": first_pass,
        "cold_start_ms": cli if workload.name == "cli" else None,
    })
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"spans-{workload.name}.jsonl.gz", "wt", encoding="utf-8") as fh:
        tracing.write_spans(spans, fh)
    return metrics, untraced + [traced], not leftovers and not nesting, state["items"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, SRC)
    commit, src_digest = source_identity()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": src_digest,
        "loop": "closed, one caller, no pool",
    }
    try:
        if args.trace:
            metrics, passes, trace_ok, items = traced_run(
                workload, args.seed, args.seconds, record
            )
            units = {k: _unit(k) for k in metrics}
            setup_times = None
        else:
            lg, state, setup_times, passes = run_passes(workload, args.seed, args.seconds)
            rss = peak_rss_mb(children=args.workload == "cli")
            metrics, shape = end_to_end(workload, state, passes, setup_times, rss)
            record.update(shape)
            units = END_TO_END_UNITS
            trace_ok, items = True, state["items"]
    except SourceMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    record["inputs"] = input_summary(items)
    record["input_digest"] = workloads.digest(items)

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    record["failed_frac"] = len(failures) / attempted
    record["failures"] = failures[:20]
    record["pass_walls_s"] = [p["wall"] for p in passes if p["wall"] is not None]
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    print(json.dumps({"record": record}, sort_keys=True))
    record["setup_s_each"] = setup_times
    record["item_samples_s"] = item_samples(passes)
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": not failures and trace_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("peak_terms"):
        return "terms"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
