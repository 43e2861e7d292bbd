"""Tests of the benchmark harness itself: seeded inputs, size caps, failure
counting and the metric names promised in BENCHMARK.json."""

import json
import time

import pytest

import child
import checks
import inputs
import run
from env import ROOT

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    gen = inputs.GENERATORS[workload]
    assert gen(5, 0) == gen(5, 0)
    assert gen(5, 0) != gen(6, 0)
    assert gen(5, 0) != gen(5, 1)


def _sizes_ok(op):
    kind, a, b, r = op
    if kind in ("pair", "homdim", "gram"):
        colors = (1, 2, 3) if r is None else range(1, r - 1)
        return (sum(a) + sum(b) <= inputs.MAX_PAIR_SIZE
                and all(c in colors for c in a + b))
    if kind == "jw":
        return 2 <= a <= (inputs.MAX_JW if r is None else r - 1)
    if kind == "trace":
        return 1 <= sum(a) <= 5
    crossings = sum(1 for lay in a if lay[0] in ("x+", "x-"))
    return (crossings <= inputs.MAX_CROSSINGS
            and max(inputs._widths(a)) <= inputs.MAX_WORD_WIDTH)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generators_respect_size_caps(workload):
    for seed in SEEDS:
        ops = inputs.GENERATORS[workload](seed, 0)
        assert ops and all(_sizes_ok(op) for op in ops)


def test_sweeps_keep_size_eight_pairs():
    for gen in (inputs.generic_sweep, inputs.root_sweep):
        assert any(sum(a) + sum(b) == 8 for _, a, b, _ in gen(0, 0))


def test_guards_refuse_the_measured_cliffs():
    with pytest.raises(ValueError):
        inputs.guard_pair((3, 3), (2, 2))
    with pytest.raises(ValueError):
        inputs.guard_pair((8,), ())
    with pytest.raises(ValueError):
        inputs.guard_jw(8)
    with pytest.raises(ValueError):
        inputs.random_word(inputs.MAX_CROSSINGS + 1, inputs.random.Random(0))
    with pytest.raises(ValueError):
        inputs.guard_word((("cup", 1, 0), ("cup", 1, 2), ("cup", 1, 4),
                           ("cup", 1, 6)))


def test_random_words_are_closed_with_the_asked_crossings():
    rng = inputs.random.Random(3)
    for c in range(inputs.MAX_CROSSINGS + 1):
        layers = inputs.random_word(c, rng)
        assert layers and inputs._widths(layers)[-1] == 0
        assert sum(1 for lay in layers if lay[0] in ("x+", "x-")) == c


def test_tower_covers_its_populations():
    ops = inputs.projector_tower(0, 0)
    kinds = {k: [op for op in ops if op[0] == k]
             for k in ("jw", "trace", "bracket")}
    assert [op[1] for op in kinds["jw"]] == list(range(2, inputs.MAX_JW + 1))
    assert sorted(op[1] for op in kinds["trace"]) == sorted(
        s for n in range(1, 6) for s in inputs._compositions(n))
    shapes = inputs.corpus_shapes()
    assert sorted(sum(1 for lay in op[1] if lay[0] in ("x+", "x-"))
                  for op in kinds["bracket"]) == sorted(c for c, _ in shapes)


def test_cold_cli_blocks_hold_every_cell():
    cells = {}
    for kind, a, b, r in inputs.cold_cli(0, 0):
        if kind in ("homdim", "gram"):
            big = sum(a) + sum(b) == inputs.MAX_PAIR_SIZE
            key = (kind, r, inputs._cell((a, b)) if big else "small")
        else:
            key = (kind, r)
        cells[key] = cells.get(key, 0) + 1
    for r in (None,) + inputs.ROOTS:
        for kind in ("homdim", "gram"):
            assert [cells[(kind, r, c)] for c in range(5)] == [1] * 5
            assert cells[(kind, r, "small")] == 5
        assert cells[("jw", r)] == cells[("bracket", r)] == 5


def test_population_counts_match_the_acceptance_sweeps():
    assert len(inputs.generic_pairs()) == 963
    assert len(inputs.root_pairs()) == 1520


SMALL_OPS = [
    ("pair", (1, 1), (2,), None),
    ("pair", (1, 1), (1, 1), 4),
    ("jw", 3, None, None),
    ("trace", (1, 1), (1, -2), None),
    ("bracket", (("cup", 1, 0), ("cup", 3, 2), ("x+", 2, 4), ("x+", 2, 4),
                 ("cap", 1, 4), ("cap", 1, 2)), None, 5),
]


def _tamper(result):
    """The same result with one number changed."""
    if isinstance(result, tuple):
        first, second = result
        if hasattr(first, "terms"):                 # (projector, closure)
            return first, second + second
        return first + 1, second                    # (trace value, endo)
    if hasattr(result, "verdict"):                  # FunctorReport
        return result.__class__(result.source, result.target,
                                result.dim_diagram_side + 1,
                                result.dim_rep_side + 1,
                                result.matrix_rank + 1, result.mode)
    return result + 1                               # bracket value


def test_untampered_unit_passes():
    out = child.run_unit(SMALL_OPS)
    assert out["attempted"] == len(SMALL_OPS) and out["failed"] == 0


@pytest.mark.parametrize("index", range(len(SMALL_OPS)))
def test_tampered_result_counts_as_failed(monkeypatch, index):
    honest = child.run_op
    target = SMALL_OPS[index]

    def tampered(op):
        result = honest(op)
        return _tamper(result) if op == target else result

    monkeypatch.setattr(child, "run_op", tampered)
    out = child.run_unit(SMALL_OPS)
    assert out["failed"] == 1


def _raise_on(target, where):
    honest = getattr(child, where)

    def faulty(op, *rest):
        if op == target:
            raise KeyError("tampered")
        return honest(op, *rest)
    return faulty


@pytest.mark.parametrize("where", ("run_op", "check_op"))
def test_raising_operation_or_check_counts_as_failed(monkeypatch, where):
    monkeypatch.setattr(child, where, _raise_on(SMALL_OPS[1], where))
    out = child.run_unit(SMALL_OPS)
    assert out["attempted"] == len(SMALL_OPS) and out["failed"] == 1


def test_raising_operation_exits_one_with_a_result(monkeypatch, capsys):
    """The whole path: the failure reaches the JSON line and exit code 1."""

    def in_process(args, clock):
        start = time.perf_counter()
        argv = args[1:] if args[0] == "unit" else args[1:4] + ["--setup-only"]
        out = child._unit(argv)
        return start, time.perf_counter() - start, out, (1.3e-3, 1.3e-3)

    monkeypatch.setattr(child, "run_op", _raise_on(SMALL_OPS[1], "run_op"))
    monkeypatch.setitem(inputs.GENERATORS, "generic_sweep",
                        lambda seed, unit: SMALL_OPS)
    monkeypatch.setattr(run, "spawn", in_process)
    monkeypatch.setattr(run.os, "sched_setaffinity", lambda *_: None)
    code = run.main(["--workload", "generic_sweep", "--seed", "0",
                     "--seconds", "0.01", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert (last["correct"], last["attempted"], last["failed"]) == (
        False, len(SMALL_OPS), 1)


def test_accounting_shows_operation_time_outside_layer_spans():
    summary = {"self_s": {"functor": 6.0, "scalars.generic": 2.0},
               "entries": {}, "calls": {}, "counts": {}, "wall_s": 11.0,
               "spans": 5}
    m = run.layer_metrics(summary, overhead=1.0, op_time=10.0)
    assert m["trace.accounted_frac"] == pytest.approx(0.8)
    assert m["bench.self_s"] == pytest.approx(1.0)


def test_cli_checks_reject_tampered_output():
    cases = [
        (("homdim", (1, 1), (2,), None), "1, 1, iso\n", "2, 2, iso\n"),
        (("gram", (1, 1), (1, 1), None),
         "1,1 ; 1,1 ; generic\na^4 + 2 + a^-4 ; -a^2 - a^-2\n"
         "-a^2 - a^-2 ; a^4 + 2 + a^-4\n",
         "1,1 ; 1,1 ; generic\na^4 + 2 + a^-4 ; -a^2 - a^-2\n"
         "a^4 + 2 + a^-4 ; -a^2 - a^-2\n"),
        (("jw", 2, None, None), "2 1 4 3 : a^2 / a^4 + 1\n3 4 1 2 : 1\n",
         "2 1 4 3 : a^2 / a^4 + 1\n3 4 1 2 : 2\n"),
        (("bracket", (("cup", 1, 0), ("cap", 1, 2)), None, None),
         "-a^2 - a^-2\n", "a^2 + a^-2\n"),
    ]
    for query, good, bad in cases:
        assert checks.check_cli(query, 0, good), query
        assert not checks.check_cli(query, 0, bad), query
        assert not checks.check_cli(query, 1, good), query


def test_gram_rank_over_the_prime_field():
    # the Gram matrix of (1,1) at r = 3 has rank 1: [2] vanishes there
    rows = [["a^4 + 2 + a^-4", "-a^2 - a^-2"], ["-a^2 - a^-2", "a^4 + 2 + a^-4"]]
    assert checks.modular_rank(rows, None) == 2
    assert checks.modular_rank(rows, 3) == 1


def test_tail_percentile_fixed_by_unit_size():
    assert run.tail(list(range(1, 101)), 100) == (90, 90, 10)
    assert run.tail(list(range(1, 201)), 100) == (90, 180, 20)
    assert run.tail(list(range(1, 201)), 200) == (95, 190, 10)
    assert run.tail(list(range(1, 41)), 20)[0] == 90


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
