"""Self-checks of the benchmark harness.

    python3 benchmarks/selfcheck.py

Checks that inputs are a function of the seed, that each workload's checker
rejects a corrupted output (and the pass loop counts it, and an item that
raises, as failed), that the percentile, mean, self-time and span
nesting arithmetic is right on hand-made data, that tracing wraps every
binding and leaves no wrapper behind, and that the benchmark refuses to run without the library source.
Exits with 1 if any check fails.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def check(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))


def check_seeding(lg):
    for name in workloads.NAMES:
        w = workloads.make(name, run.SRC)
        a = workloads.digest(w.setup(lg, 7)["items"])
        b = workloads.digest(w.setup(lg, 7)["items"])
        c = workloads.digest(w.setup(lg, 8)["items"])
        check(f"{name}: same seed gives identical inputs", a == b)
        check(f"{name}: another seed gives other inputs", a != c)


class Corrupting:
    """A workload whose output for one item is corrupted, another raises."""

    def __init__(self, inner, bad_id, raising_id):
        self.inner, self.bad_id, self.raising_id = inner, bad_id, raising_id
        self.name = inner.name

    def run(self, lg, state, item):
        if item.id == self.raising_id:
            raise lg.LaurentError("injected failure")
        out = self.inner.run(lg, state, item)
        return self.inner.corrupt(item, out) if item.id == self.bad_id else out

    def check(self, item, out):
        return self.inner.check(item, out)


def cheapest_per_kind(name, items):
    """One small item of every kind, so the check stays quick."""
    def size(item):
        info = item.info
        return (info.get("checks", 0) if name == "catalog" else 0,
                info.get("points", 0), info.get("terms", 0), info.get("order", 0))

    chosen = {}
    for item in sorted(items, key=size):
        if name == "catalog" and not item.info["checks"]:
            continue
        chosen.setdefault(item.kind, item)
    return list(chosen.values())


def check_corruption(lg):
    for name in workloads.NAMES:
        w = workloads.make(name, run.SRC)
        state = w.setup(lg, 3)
        sample = cheapest_per_kind(name, state["items"])
        for item in sample:
            out = w.run(lg, state, item)
            check(f"{name}/{item.kind}: true output passes", w.check(item, out))
            check(f"{name}/{item.kind}: corrupted output fails", not w.check(item, w.corrupt(item, out)))
        spare = [i for i in state["items"] if i not in sample][:1]
        state = dict(state, items=sample + spare)
        bad = Corrupting(w, sample[0].id, (spare or sample)[-1].id)
        result = run.run_pass(bad, lg, state, seed=0, index=0)
        failed = sorted(f.split(":")[0] for f in result["failed"])
        want = sorted({sample[0].id, (spare or sample)[-1].id})
        check(f"{name}: pass loop counts corrupted and raising items", failed == want, str(failed))


def check_arithmetic():
    check("tail percentile of 94 items is p89", stats.tail_percentile(94) == 89)
    check("tail percentile of 88 items is p88", stats.tail_percentile(88) == 88)
    check("tail percentile of 11 items is p16", stats.tail_percentile(11) == 16)
    check("no tail percentile for 10 items", stats.tail_percentile(10) is None)
    check("p50 is the median", stats.percentile([1, 2, 3, 10], 50) == 2.5
          and stats.percentile([1, 2, 9], 50) == 2)
    check("p89 of 1..94 interpolates ranks 84 and 85", abs(stats.percentile(list(range(1, 95)), 89) - 84.55) < 1e-9)
    check("percentiles clamp to the extremes",
          stats.percentile([5, 6], 1) == 5 and stats.percentile([5, 6], 99) == 6)
    passes = [
        {"wall": 5.0, "latencies": {"a": 2.0, "b": 3.0}},
        {"wall": None, "latencies": {"a": 1.0}},
        {"wall": 6.0, "latencies": {"a": 4.0, "b": 2.0}},
    ]
    check("each item's mean latency over every pass that ran it",
          run.item_latencies(passes) == {"a": 7.0 / 3, "b": 2.5})
    check("pass wall is the mean of the complete passes", run.pass_wall(passes) == 5.5)
    for n in (11, 20, 64, 94, 200):
        p = stats.tail_percentile(n)
        values = list(range(1, n + 1))
        beyond = sum(1 for v in values if v > stats.percentile(values, p))
        check(f"p{p} of {n} items leaves at least 10 beyond", beyond >= 10)

    def span(name, layer, op, start, end, parent, info=None):
        return [name, layer, op, start, end, parent, "item", info]

    # verify(0-10) > [mutate(1-4) > mul(2-3)], [period(5-9) > period(6-7)]
    spans = [
        span("verify_entry", "catalog", "verify", 0.0, 10.0, -1),
        span("mutate", "mutation", "mutate", 1.0, 4.0, 0),
        span("LaurentPolynomial.__mul__", "laurent.mul", "mul", 2.0, 3.0, 1, (6, 5)),
        span("period_coefficients", "period", "period", 5.0, 9.0, 0),
        span("period_coefficients", "period", "period", 6.0, 7.0, 3),
    ]
    check("self times subtract direct children",
          tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0])
    m = tracing.layer_metrics(spans, range(len(spans)))
    check("layer self seconds", (m["catalog.self_s"], m["mutation.self_s"], m["laurent.mul.self_s"],
                                 m["period.self_s"]) == (3.0, 2.0, 1.0, 4.0))
    check("nested calls of one op count once", m["period.calls"] == 1)
    check("term pairs and peak terms", (m["laurent.mul.term_pairs"], m["laurent.mul.peak_terms"]) == (6, 5))
    check("self times sum to the top-level span",
          sum(tracing.self_times(spans)) == tracing.top_level_seconds(spans, range(len(spans))))
    check("well-nested spans inside their item pass the nesting check",
          tracing.nesting_errors(spans, {"item": (0.0, 10.0)}) == [])
    outside = [list(s) for s in spans]
    outside[2][tracing.END] = 4.5  # the multiplication outlives its mutate
    check("a child outside its parent fails the nesting check",
          any("not within its parent" in e for e in tracing.nesting_errors(outside, {})))
    check("a span outside its item fails the nesting check",
          any("outside item" in e for e in tracing.nesting_errors(spans, {"item": (0.5, 10.0)})))


def check_tracing(lg):
    f = lg.parse("x+y+1/(x*y)", 2)
    bindings = [
        ("lgforge", "laurent_divide"), ("lgforge.laurent", "laurent_divide"),
        ("lgforge.mutation", "laurent_divide"), ("lgforge.period", "period_coefficients"),
        ("lgforge.catalog", "parse"), ("lgforge.intlinalg", "kernel_basis"),
    ]
    originals = {b: getattr(sys.modules[b[0]], b[1]) for b in bindings}
    mul = lg.LaurentPolynomial.__dict__["__mul__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = all(
            hasattr(getattr(sys.modules[m], n), tracing.WRAPPED_MARK) for m, n in bindings
        )
        check("every module binding is wrapped", wrapped)
        check("class methods are wrapped",
              hasattr(lg.LaurentPolynomial.__dict__["__mul__"], tracing.WRAPPED_MARK))
        tracer.item = "probe"
        lg.period_coefficients(f, 4)
        data = lg.MutationData((1, 1), lg.parse("1+x/y", 2))
        try:
            lg.mutate(f, data)
        except lg.NotMutableError:
            pass
        f ** 3
    finally:
        tracer.restore()
    spans = tracer.spans
    names = [s[tracing.NAME] for s in spans]
    check("spans recorded for period, mutate and power",
          {"period_coefficients", "mutate", "LaurentPolynomial.__pow__"} <= set(names))
    pow_index = len(names) - 1 - names[::-1].index("LaurentPolynomial.__pow__")  # f ** 3
    check("multiplications inside a power are its children",
          any(s[tracing.PARENT] == pow_index and s[tracing.OP] == "mul" for s in spans))
    m = tracing.layer_metrics(spans, range(len(spans)))
    check("a raising mutate is not mutable", m["mutation.mutable_ratio"] == 0.0)
    check("no wrapper is left after restore", tracing.leftover_wrappers() == [],
          str(tracing.leftover_wrappers()))
    check("originals are restored at every binding",
          all(getattr(sys.modules[m], n) is originals[(m, n)] for m, n in bindings)
          and lg.LaurentPolynomial.__dict__["__mul__"] is mul)


def check_traced_run():
    w = workloads.make("structure", run.SRC)
    record = {}
    metrics, _, ok, _ = run.traced_run(w, 5, 0.1, record)
    check("traced run's spans nest within their parents and items",
          ok and record["nesting_errors"] == [], str(record["nesting_errors"]))
    check("traced run leaves no wrapper", record["leftover_wrappers"] == [])
    check("traced structure pass sees division and the hull",
          metrics["laurent.divide.calls"] > 0 and metrics["geometry.hull.calls"] > 0)


def check_refuses_without_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    try:
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "benchmarks" / path.name)
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "catalog", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check("refuses to run without src/lgforge", proc.returncode != 0 and not proc.stdout.strip(),
          f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main():
    lg = run.fresh_import()
    check_arithmetic()
    check_seeding(lg)
    check_corruption(lg)
    check_tracing(lg)
    check_traced_run()
    check_refuses_without_source()
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-checks pass")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
