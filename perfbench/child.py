"""One fresh interpreter of the benchmark: a unit of work, a set-up probe, or
one CLI query.  Prints a single JSON object on its last stdout line.

    python3 perfbench/child.py unit WORKLOAD SEED UNIT [--trace FILE]
    python3 perfbench/child.py setup WORKLOAD SEED UNIT
    python3 perfbench/child.py cli [--trace FILE] -- ARGV...

Time stamps are ``time.perf_counter()``, CLOCK_MONOTONIC on Linux, so the
parent can subtract its own spawn stamp from them.
"""

import statistics
import sys
import time


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(op):
    """Run one operation; return what its check needs."""
    from skeinrep import diagrams, functor, tl_category, turaev
    from checks import mode_of
    kind, a, b, r = op
    if kind == "pair":
        return functor.verify_equivalence(a, b, mode_of(r))
    if kind == "jw":
        f = tl_category.jones_wenzl(a).morphism
        return f, tl_category.markov_closure(f)
    if kind == "trace":
        mode = mode_of(None)
        basis = turaev.hom_basis(a, a, mode)
        if len(basis) != len(b):
            raise ValueError(f"basis of {a} has {len(basis)} elements, "
                             f"expected {len(b)}")
        endo = diagrams.TLMorphism.zero(sum(a), sum(a), mode)
        for h, c in zip(basis, b):
            endo = endo + h.value.scale(mode.from_int(c))
        return tl_category.closure_trace(endo), endo
    word = diagrams.GeneratorWord(a)
    return diagrams.bracket(word, mode_of(r))


def check_op(op, result):
    import checks
    kind, a, b, r = op
    if kind == "pair":
        return checks.check_pair(result, a, b, r)
    if kind == "jw":
        f, closure = result
        return checks.check_projector(a, f.to_pairs(), closure,
                                      checks.mode_of(None))
    if kind == "trace":
        return checks.check_trace(*result)
    return checks.check_bracket(result, a, checks.mode_of(r))


def run_unit(ops, tracer=None):
    """Time each operation, then check it with tracing paused.

    An operation that raises, or whose check raises or fails, counts as
    failed.  ``latencies`` are at reference speed (see speed.py); ``op_s``
    is their raw sum, on the clock the tracer's spans use.
    """
    from speed import Speedometer
    meter = Speedometer()
    spans, failed = [], 0
    start = time.perf_counter()
    if tracer is None:
        meter.start()
    else:
        meter.sample()      # no timer: its handler would run inside spans
        tracer.start()
    for op in ops:
        t0, c0 = time.perf_counter(), meter.clock()
        try:
            result = run_op(op)
            error = None
        except Exception as exc:
            error = repr(exc)
        spans.append((t0, time.perf_counter(), meter.clock() - c0))
        if tracer is not None:
            tracer.pause()
        if error is None:
            try:
                if not check_op(op, result):
                    error = "wrong result"
            except Exception as exc:
                error = f"check raised {exc!r}"
        if tracer is not None:
            tracer.resume()
        if error is not None:
            failed += 1
            print(f"operation {op!r} failed: {error}", file=sys.stderr)
    if tracer is None:
        meter.stop()
    else:
        tracer.stop()
        meter.sample()
    wall = time.perf_counter() - start
    return {"latencies": meter.rescale(spans),
            "op_s": sum(raw for _, _, raw in spans),
            "first_reference_s": meter.durations[0],
            "reference_s": statistics.median(meter.durations),
            "attempted": len(ops), "failed": failed, "wall_s": wall,
            "reference_wall_s": meter.rescale([(start, start + wall,
                                                 wall)])[0]}


def _unit(argv):
    workload, seed, unit = argv[0], int(argv[1]), int(argv[2])
    trace_path = argv[4] if argv[3:4] == ["--trace"] else None
    import env  # noqa: F401  (puts src/ and tests/ on sys.path)
    import checks  # noqa: F401
    import skeinrep.functor  # noqa: F401  (imports every layer)
    from inputs import GENERATORS
    ops = GENERATORS[workload](seed, unit)
    ready = time.perf_counter()
    out = {"ready": ready}
    if argv[3:4] != ["--setup-only"]:
        tracer = None
        if trace_path:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        out.update(run_unit(ops, tracer))
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.dump(trace_path)
        out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _cli(argv):
    trace_path = argv[1] if argv[0] == "--trace" else None
    args = argv[argv.index("--") + 1:]
    import env  # noqa: F401
    import skeinrep.cli
    ready = time.perf_counter()
    import io
    from contextlib import redirect_stderr, redirect_stdout
    tracer = None
    if trace_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = skeinrep.cli.main(args)
        except Exception as exc:    # a fault of the CLI: its check fails
            code = None
            print(f"cli.main raised {exc!r}", file=sys.stderr)
    result = {"ready": ready, "code": code, "stdout": out.getvalue(),
              "stderr": err.getvalue(), "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.stop()
        result["trace"] = tracer.summary()
        tracer.dump(trace_path)
    return result


def main(argv):
    if argv[0] == "cli":
        result = _cli(argv[1:])
    elif argv[0] == "unit":
        result = _unit(argv[1:])
    elif argv[0] == "setup":
        result = _unit(argv[1:4] + ["--setup-only"])
    else:
        raise SystemExit(f"unknown child command {argv[0]!r}")
    import json
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
