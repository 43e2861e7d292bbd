"""skeinrep benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every unit of work runs in a fresh interpreter (``child.py``), one at a time:
the package keeps unbounded module-level caches, so a second unit in the
same process would be nearly free and measure nothing.  Units repeat until
the next one would end past ``--seconds`` (at least one runs).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs unit 0 once
untraced and once traced and prints the per-layer metrics.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
1 when any operation failed its check, 2 when the benchmark could not run.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import env
from inputs import GENERATORS, WORKLOADS, cli_argv, word_text
from speed import REFERENCE_S, at_reference_speed, reference_s

CHILD = [sys.executable, str(env.ROOT / "perfbench" / "child.py")]
SETUP_PROBES = 9            # extra set-up-only interpreters per run
DEADLINE_S = 170.0          # the whole run ends inside 180 s
SPANS_DIR = env.ROOT / ".perfbench-spans"

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "scalars.generic.ops": "count", "scalars.generic.self_s": "s",
    "scalars.sum_scalars.terms": "count", "scalars.cyclo.ops": "count",
    "scalars.cyclo.self_s": "s", "scalars.cyclo.inv_calls": "count",
    "scalars.self_s": "s",
    "linalg.self_s": "s", "linalg.rows_added": "count",
    "linalg.pivot_ratio": "ratio",
    "uqsl2.hom_basis.calls": "count", "uqsl2.hom_basis.self_s": "s",
    "uqsl2.hom_basis.dim": "count", "uqsl2.repmap.compose_calls": "count",
    "uqsl2.repmap.self_s": "s", "uqsl2.self_s": "s",
    "functor.verify.calls": "count", "functor.self_s": "s",
    "diagrams.compose.calls": "count", "diagrams.compose.term_pairs": "count",
    "diagrams.self_s": "s",
    "tl_category.jw.self_s": "s", "tl_category.trace.self_s": "s",
    "tl_category.self_s": "s",
    "turaev.gram.calls": "count", "turaev.self_s": "s",
    "cli.import_s": "s", "cli.self_s": "s",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio", "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


class Clock:
    def __init__(self):
        self.t0 = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.t0

    def remaining(self):
        return DEADLINE_S - self.elapsed()


def spawn(args, clock):
    """Run one child to completion.

    Returns (spawn stamp, wall s, result, reference durations just before
    and just after the child).
    """
    timeout = clock.remaining()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    before = reference_s()
    start = time.perf_counter()
    try:
        proc = subprocess.run(CHILD + args, cwd=env.ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:4]} passed the {DEADLINE_S:.0f} s "
                         f"deadline") from None
    wall = time.perf_counter() - start
    after = reference_s()
    if proc.returncode != 0:
        raise BenchError(f"child {args[:4]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return start, wall, json.loads(proc.stdout.splitlines()[-1]), (before, after)


# ---------------------------------------------------------------------------
# statistics

def tail(latencies, unit_size):
    """(percentile, value, samples beyond it) for the tail metric.

    The percentile is the highest of p99, p95, p90 that leaves at least ten
    samples of one unit beyond it, and p90 when none does.  Fixing it from
    the unit size keeps it the same however many units a run fits; it is
    then read from every sample of the run (nearest rank).
    """
    pct = next((p for p in (99, 95, 90)
                if unit_size - math.ceil(p * unit_size / 100) >= 10), 90)
    xs = sorted(latencies)
    rank = math.ceil(pct * len(xs) / 100)
    return pct, xs[rank - 1], len(xs) - rank


def end_to_end(latencies, setups, rss, unit_size, references):
    """The end-to-end metrics, all timings at reference speed, and notes."""
    pct, value, beyond = tail(latencies, unit_size)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": max(rss),
    }
    ratio = statistics.median(references) / REFERENCE_S
    notes = [f"op_tail_ms is p{pct} of {len(latencies)} operations "
             f"({beyond} beyond)",
             f"reference loop took {ratio:.4g} times REFERENCE_S in this run; "
             f"raw clock durations are about that many times the ones above"]
    return metrics, notes


# ---------------------------------------------------------------------------
# in-process workloads: one unit per interpreter

def unit_child(workload, seed, unit, clock, trace_file=None):
    args = ["unit", workload, str(seed), str(unit)]
    if trace_file:
        args += ["--trace", trace_file]
    start, _, out, (before, _) = spawn(args, clock)
    out["setup_s"] = at_reference_speed(out["ready"] - start, before,
                                        out["first_reference_s"])
    return out


def measure_units(workload, seed, seconds, clock):
    units = []
    while True:
        units.append(unit_child(workload, seed, len(units), clock))
        mean = clock.elapsed() / len(units)
        if clock.elapsed() + mean > seconds:
            break
    setups = [u["setup_s"] for u in units]
    references = [u["reference_s"] for u in units]
    for i in range(SETUP_PROBES):
        start, _, out, refs = spawn(["setup", workload, str(seed), str(i)],
                                    clock)
        setups.append(at_reference_speed(out["ready"] - start, *refs))
        references += refs
    metrics, notes = end_to_end(
        [x for u in units for x in u["latencies"]], setups,
        [u["peak_rss_mb"] for u in units], len(units[0]["latencies"]),
        references)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    return metrics, attempted, failed, notes + [f"{len(units)} units"]


# ---------------------------------------------------------------------------
# cold_cli: one interpreter per query, checked here

def run_query(query, workdir, clock, trace_file=None):
    import checks
    word = None
    if query[0] == "bracket":
        word = os.path.join(workdir, "query.word")
        with open(word, "w") as fh:
            fh.write(word_text(query[1]))
    args = ["cli"] + (["--trace", trace_file] if trace_file else []) \
        + ["--"] + cli_argv(query, word)
    start, wall, out, refs = spawn(args, clock)
    ok = checks.check_cli(query, out["code"], out["stdout"])
    if not ok:
        print(f"query {args} failed its check: exit {out['code']}, "
              f"stdout {out['stdout']!r}, stderr {out['stderr']!r}",
              file=sys.stderr)
    out.update(ok=ok, references=refs, wall=at_reference_speed(wall, *refs),
               import_s=at_reference_speed(out["ready"] - start, *refs))
    return out


def measure_cli(seed, seconds, clock, workdir):
    done, blocks = [], 0
    while True:
        done += [run_query(q, workdir, clock)
                 for q in GENERATORS["cold_cli"](seed, blocks)]
        blocks += 1
        if clock.elapsed() * (blocks + 1) / blocks > seconds:
            break
    metrics, notes = end_to_end(
        [q["wall"] for q in done], [q["import_s"] for q in done],
        [q["peak_rss_mb"] for q in done], len(done) // blocks,
        [x for q in done for x in q["references"]])
    failed = sum(not q["ok"] for q in done)
    return metrics, len(done), failed, notes + [f"{blocks} blocks"]


# ---------------------------------------------------------------------------
# traced run

def layer_metrics(summary, overhead, op_time, import_s=0.0):
    """Per-layer metrics from a merged tracer summary.

    ``overhead`` is traced minus untraced time at reference speed;
    ``op_time`` the raw time inside operations, by the benchmark's timers,
    on the clock the spans use.  ``import_s`` is at reference speed.
    """
    self_s, entries = summary["self_s"], summary["entries"]
    calls, counts = summary["calls"], summary["counts"]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    rows = counts.get("linalg.rows_added", 0)
    wall = summary["wall_s"]
    layer_total = sum(self_s.values())
    bench = wall - op_time
    m = {
        "scalars.generic.ops": entries.get("scalars.generic", 0),
        "scalars.generic.self_s": self_s.get("scalars.generic", 0.0),
        "scalars.sum_scalars.terms": counts.get("scalars.sum_scalars.terms", 0),
        "scalars.cyclo.ops": entries.get("scalars.cyclo", 0),
        "scalars.cyclo.self_s": self_s.get("scalars.cyclo", 0.0),
        "scalars.cyclo.inv_calls": calls.get("scalars.ScalarCyclotomic.inv", 0),
        "linalg.rows_added": rows,
        "linalg.pivot_ratio": counts.get("linalg.pivots", 0) / rows if rows else 0.0,
        "uqsl2.hom_basis.calls": calls.get("uqsl2.rep_hom_basis", 0),
        "uqsl2.hom_basis.self_s": self_s.get("uqsl2.hom_basis", 0.0),
        "uqsl2.hom_basis.dim": counts.get("uqsl2.hom_basis.dim", 0),
        "uqsl2.repmap.compose_calls": calls.get("uqsl2.RepMap.compose", 0),
        "uqsl2.repmap.self_s": self_s.get("uqsl2.repmap", 0.0),
        "functor.verify.calls": calls.get("functor.verify_equivalence", 0),
        "diagrams.compose.calls": calls.get("diagrams.compose", 0),
        "diagrams.compose.term_pairs": counts.get("diagrams.compose.term_pairs", 0),
        "tl_category.jw.self_s": self_s.get("tl_category.jw", 0.0),
        "tl_category.trace.self_s": self_s.get("tl_category.trace", 0.0),
        "turaev.gram.calls": (calls.get("turaev.gram_matrix", 0)
                              + calls.get("turaev.gram_matrix_literal", 0)),
        "cli.import_s": import_s,
        "bench.self_s": bench,
        "trace.wall_s": wall,
        "trace.overhead_s": overhead,
        "trace.accounted_frac": layer_total / op_time,
        "trace.spans": summary["spans"],
    }
    for layer in ("scalars", "linalg", "uqsl2", "functor", "diagrams",
                  "tl_category", "turaev", "cli"):
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


def merge(summaries):
    out = {"self_s": {}, "entries": {}, "calls": {}, "counts": {},
           "wall_s": 0.0, "spans": 0}
    for s in summaries:
        for part in ("self_s", "entries", "calls", "counts"):
            for k, v in s[part].items():
                out[part][k] = out[part].get(k, 0) + v
        out["wall_s"] += s["wall_s"]
        out["spans"] += s["spans"]
    return out


def traced(workload, seed, clock, workdir):
    """Unit 0 untraced, then traced; spans go to SPANS_DIR."""
    SPANS_DIR.mkdir(exist_ok=True)
    spans = str(SPANS_DIR / f"{workload}-{seed}")
    if workload == "cold_cli":
        queries = GENERATORS["cold_cli"](seed, 0)
        plain = [run_query(q, workdir, clock) for q in queries]
        traced_q = [run_query(q, workdir, clock, f"{spans}-q{i}.jsonl")
                    for i, q in enumerate(queries)]
        summary = merge([q["trace"] for q in traced_q])
        overhead = sum(q["wall"] for q in traced_q) - sum(q["wall"]
                                                          for q in plain)
        metrics = layer_metrics(summary, overhead, summary["wall_s"],
                                statistics.median(q["import_s"]
                                                  for q in plain))
        results = plain + traced_q
        return metrics, len(results), sum(not q["ok"] for q in results)
    plain = unit_child(workload, seed, 0, clock)
    t = unit_child(workload, seed, 0, clock, trace_file=spans + ".jsonl")
    metrics = layer_metrics(t["trace"],
                            t["reference_wall_s"] - plain["reference_wall_s"],
                            t["op_s"])
    attempted = plain["attempted"] + t["attempted"]
    return metrics, attempted, plain["failed"] + t["failed"]


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lacking = env.missing()
    if lacking:
        print(f"error: checkout lacks {', '.join(lacking)}", file=sys.stderr)
        return 2
    # one core for the whole run, children included, so each reference
    # sample shares its core, and so its contention, with the timed work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Clock()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=env.ROOT)
    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed,
                                                clock, workdir)
            units, notes = PER_LAYER, []
        elif args.workload == "cold_cli":
            metrics, attempted, failed, notes = measure_cli(
                args.seed, args.seconds, clock, workdir)
            units = END_TO_END
        else:
            metrics, attempted, failed, notes = measure_units(
                args.workload, args.seed, args.seconds, clock)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
