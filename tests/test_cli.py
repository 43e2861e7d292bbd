import contextlib
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from corpus import CLOSED_WORDS
from skeinrep.cli import (MAX_ENTRY_CHARS, MAX_ENTRY_SPAN, MAX_WORD_LAYERS,
                          MAX_WORD_WIDTH, _override_entry, main)
from skeinrep.diagrams import bracket, parse_word
from skeinrep.scalars import GENERIC, RootMode, format_scalar

ROOT = Path(__file__).parents[1]
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def golden(name):
    return (GOLDEN / name).read_text()


def test_bracket_golden():
    code, out, err = run_cli("bracket", DATA / "trefoil.word")
    assert (code, err) == (0, "")
    assert out == golden("bracket_trefoil.txt")
    code, out, err = run_cli("bracket", DATA / "trefoil.word",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert out == golden("bracket_trefoil.json")
    # the two formats carry the same value
    payload = json.loads(out)
    assert payload["bracket"] + "\n" == golden("bracket_trefoil.txt")
    assert payload["mode"] == "generic"


def test_bracket_root_mode_golden():
    code, out, err = run_cli("bracket", DATA / "hopf.word",
                             "--mode", "root:5")
    assert (code, err) == (0, "")
    assert out == golden("bracket_hopf_root5.txt")
    word = parse_word((DATA / "hopf.word").read_text())
    assert out == format_scalar(bracket(word, RootMode(5))) + "\n"


def test_bracket_empty_word_file():
    code, out, err = run_cli("bracket", DATA / "empty.word")
    assert (code, out, err) == (0, "1\n", "")


def test_jw_golden():
    code, out, err = run_cli("jw", "3")
    assert (code, err) == (0, "")
    assert out == golden("jw3.txt")
    code, out, err = run_cli("jw", "3", "--format", "json")
    assert (code, err) == (0, "")
    assert out == golden("jw3.json")
    payload = json.loads(out)
    assert payload["k"] == 3
    assert len(payload["rows"]) == 5
    code, out, err = run_cli("jw", "2", "--mode", "root:5")
    assert (code, err) == (0, "")
    assert out == golden("jw2_root5.txt")


def test_jw_past_seven_strands():
    code, out, err = run_cli("jw", "8")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 1430
    identity = " ".join(str(p) for p in list(range(9, 17)) + list(range(1, 9)))
    assert f"{identity} : 1" in rows


def test_homdim_golden():
    code, out, err = run_cli("homdim", "1,1", "2")
    assert (code, err) == (0, "")
    assert out == golden("homdim_11_2.txt")
    code, out, err = run_cli("homdim", "1,1", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert out == golden("homdim_11_2.json")


def test_homdim_past_size_eight():
    code, out, err = run_cli("homdim", "3,3", "2,2")
    assert (code, err, out) == (0, "", "3, 3, iso\n")


def test_verify_batch_golden():
    code, out, err = run_cli("verify", DATA / "pairs.batch")
    assert (code, err) == (0, "")
    assert out == golden("verify_pairs.txt")
    code, out, err = run_cli("verify", DATA / "pairs.batch",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert out == golden("verify_pairs.json")
    payload = json.loads(out)
    assert payload["all_iso"] is True
    assert len(payload["reports"]) == 6


def test_gram_golden():
    code, out, err = run_cli("gram", "1,1", "1,1")
    assert (code, err) == (0, "")
    assert out == golden("gram_11_11.txt")
    code, out, err = run_cli("gram", "1,1", "1,1", "--format", "json")
    assert (code, err) == (0, "")
    assert out == golden("gram_11_11.json")
    code, out, err = run_cli("gram", "2,2", "2,2", "--mode", "root:4")
    assert (code, err) == (0, "")
    assert out == golden("gram_22_22_root4.txt")


def test_gram_override_clean_keeps_verdicts():
    code, out, err = run_cli("verify", DATA / "pairs.batch",
                             "--gram-override",
                             DATA / "gram_override_clean.json")
    assert (code, err) == (0, "")
    assert out == golden("verify_pairs.txt")


def test_gram_override_tampered_fails():
    # source [1, 0, 1] names the same object as 1,1: color 0 is the unit
    for name in ("gram_override_tampered.json",
                 "gram_override_tampered_zero.json"):
        code, out, err = run_cli("verify", DATA / "pairs.batch",
                                 "--gram-override", DATA / name)
        assert code == 2, name
        assert err == "", name
        assert out == golden("verify_tampered.txt"), name
        lines = out.splitlines()
        assert lines[2].endswith("not-iso")
        assert sum(1 for li in lines if li.endswith("not-iso")) == 1


def test_out_file_writing(tmp_path):
    target = tmp_path / "result.txt"
    code, out, err = run_cli("bracket", DATA / "trefoil.word",
                             "--out", target)
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == golden("bracket_trefoil.txt")


def test_usage_and_parse_errors_exit_1():
    cases = [
        ("bracket", DATA / "bad.word"),
        ("bracket", DATA / "open.word"),
        ("bracket", DATA / "missing.word"),
        ("bracket", DATA / "trefoil.word", "--mode", "root:2"),
        ("bracket", DATA / "trefoil.word", "--mode", "root:17x"),
        ("jw", "-1"),
        ("jw", "3", "--mode", "root:3"),
        ("jw", "1500", "--mode", "root:3"),
        ("jw", "1500"),
        ("jw", "3", "--badflag"),
        ("nosuchcommand",),
        ("homdim", "", "2"),
        ("homdim", "1,x", "2"),
        ("homdim", "3", "3", "--mode", "root:4"),
        ("verify", DATA / "short_line.batch"),
        ("verify", DATA / "bad_colors.batch"),
        ("verify", DATA / "empty.batch"),
    ]
    for argv in cases:
        code, out, err = run_cli(*argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv
    # inputs past the size limits are refused at once, in every mode, with
    # one line that names the limit
    limits = [
        (("jw", "10"), "above the limit of 9 strands"),
        (("jw", "10", "--mode", "root:20"), "above the limit of 9 strands"),
        (("homdim", "7", "7"), "14 strands, above the limit of 10"),
        (("homdim", "7", "7", "--mode", "root:12"), "above the limit of 10"),
        (("gram", "8", "0"), "color 8 is above the limit of 7"),
        (("homdim", "1,1,1,1,1,1", "1,1,1,1,1,1"), "12 strands"),
        (("homdim", "7,5", "0"), "7,5 ; 0 has 12 strands"),
        (("verify", DATA / "too_large.batch"),
         "too_large.batch:3: 7 ; 7 has 14 strands"),
        # root orders too, wherever a mode is parsed
        (("homdim", "1", "1", "--mode", "root:21"),
         "root order 21 is above the limit of 20"),
        (("bracket", DATA / "trefoil.word", "--mode", "root:20000"),
         "root order 20000 is above the limit of 20"),
        (("verify", DATA / "root_too_large.batch"),
         "root_too_large.batch:3: root order 21 is above the limit of 20"),
    ]
    for argv, fragment in limits:
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        assert fragment in err, argv
    # a malformed or ineffective Gram override is one error line that names
    # the file and the fault
    overrides = {
        "gram_override_no_matrix.json": "missing key 'matrix'",
        "gram_override_not_object.json": "expected a JSON object",
        "gram_override_bad_entry.json": "matrix row 2, column 2:",
        "gram_override_bad_shape.json": "expected 2 rows of 2 entries",
        "gram_override_unmatched.json": "matches no pair of",
        "gram_override_root_too_large.json":
            "key 'mode': root order 21 is above the limit of 20",
    }
    for name, fragment in overrides.items():
        code, out, err = run_cli("verify", DATA / "pairs.batch",
                                 "--gram-override", DATA / name)
        assert (code, out) == (1, ""), name
        assert err.startswith(f"error: {DATA / name}: "), name
        assert fragment in err and err.count("\n") == 1, name


def test_root_override_cancels_or_refuses_a_pole(tmp_path):
    phi12 = "a^4 - a^2 + 1"     # Phi_12, zero at a primitive 12th root
    assert _override_entry(f"{phi12} / {phi12}", RootMode(3)) == 1
    override = tmp_path / "pole.json"
    override.write_text(json.dumps({
        "source": [1, 1], "target": [1, 1], "mode": "root:3",
        "matrix": [[f"1 / {phi12}", "0"], ["0", "1"]]}))
    code, out, err = run_cli("verify", DATA / "pairs.batch",
                             "--gram-override", override)
    assert (code, out) == (1, "")
    assert err == (f"error: {override}: matrix row 1, column 1: denominator "
                   f"{phi12} vanishes at a primitive 12-th root of unity\n")


@pytest.mark.parametrize("mode", ["generic", "root:3"])
def test_override_entries_at_and_past_the_limits(tmp_path, mode):
    m = RootMode(3) if mode == "root:3" else GENERIC
    wide = MAX_ENTRY_SPAN
    at_limit = ["7" * MAX_ENTRY_CHARS, f"a^{wide} + 1 / a + 2",
                f"a + 2 / a^{wide // 2} + a^{-(wide - wide // 2)}"]
    for text in at_limit:
        assert not _override_entry(text, m).is_zero(), text
    past = [("7" * (MAX_ENTRY_CHARS + 1),
             f"entry has {MAX_ENTRY_CHARS + 1} characters, above the limit "
             f"of {MAX_ENTRY_CHARS}"),
            (f"a^{wide + 1} + 1 / a + 2",
             f"powers of a span {wide + 1}, above the limit of {wide}"),
            (f"a + 2 / a^{wide // 2} + a^{-(wide // 2) - 1}",
             f"powers of a span {wide + 1}, above the limit of {wide}"),
            ("a^20000 + 3*a^7 + 1 / a^19999 + 2*a^5 + 1",
             f"powers of a span 20000, above the limit of {wide}")]
    for text, reason in past:
        override = tmp_path / "limit.json"
        override.write_text(json.dumps({
            "source": [1, 1], "target": [1, 1], "mode": mode,
            "matrix": [["1", text], ["0", "1"]]}))
        code, out, err = run_cli("verify", DATA / "pairs.batch",
                                 "--gram-override", override)
        assert (code, out) == (1, ""), text
        assert err == f"error: {override}: matrix row 1, column 2: " \
            f"{reason}\n", text


@pytest.mark.parametrize("mode", ["generic", "root:5"])
def test_override_entries_in_exponent_notation_are_refused(tmp_path, mode):
    # 1e9999999 is 9 characters, within both entry limits, yet names a
    # ten-million-digit integer: taken as a rational, one such entry cost
    # 20 s generically and 27 s at root:5
    for text, bad in [("1e9999999", "1e9999999"),
                      ("a^2 - 3e999999*a", "3e999999"),
                      ("1 / 1.5*a + 2", "1.5")]:
        override = tmp_path / "exponent.json"
        override.write_text(json.dumps({
            "source": [1, 1], "target": [1, 1], "mode": mode,
            "matrix": [["1", "0"], ["0", text]]}))
        start = time.perf_counter()
        code, out, err = run_cli("verify", DATA / "pairs.batch",
                                 "--gram-override", override)
        assert time.perf_counter() - start < 0.5, text
        assert (code, out) == (1, ""), text
        assert err == f"error: {override}: matrix row 2, column 2: " \
            f"bad coefficient {bad!r}\n", text


def _wide_word(n, crossings, seed=1):
    # cups up to n strands, random crossings on all n, then caps back down
    rng = random.Random(seed)
    lines = [f"cup {1 + i} of {2 * i}" for i in range(n // 2)]
    lines += [f"x{rng.choice('+-')} {rng.randint(1, n - 1)} of {n}"
              for _ in range(crossings)]
    lines += [f"cap 1 of {2 * i}" for i in range(n // 2, 0, -1)]
    return "\n".join(lines) + "\n"


def _benchmark_inputs():
    # perfbench/inputs.py, which draws the benchmark's bracket words
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_bracket_words_at_and_past_the_limits(tmp_path):
    word = tmp_path / "limit.word"
    at_limit = [_wide_word(MAX_WORD_WIDTH, 1),
                "cup 1 of 0\n" + "x+ 1 of 2\n" * (MAX_WORD_LAYERS - 2)
                + "cap 1 of 2\n"]
    for text in at_limit:
        word.write_text(text)
        code, out, err = run_cli("bracket", word)
        assert (code, err) == (0, "")
        assert out == format_scalar(bracket(parse_word(text))) + "\n"
    # each refusal names the first line past a limit: the ninth cup widens
    # the word to 18 strands, the 81st layer passes the layer limit
    wide = f"line 9: word reaches 18 strands, above the limit of " \
           f"{MAX_WORD_WIDTH}"
    past = [(_wide_word(MAX_WORD_WIDTH + 2, 1), wide),
            (at_limit[1] + "cup 1 of 0\ncap 1 of 2\n",
             f"line {MAX_WORD_LAYERS + 1}: word reaches "
             f"{MAX_WORD_LAYERS + 1} layers, above the limit of "
             f"{MAX_WORD_LAYERS}"),
            # an open word is refused by its top width like any other
            ("".join(f"cup 1 of {2 * i}\n" for i in range(9)), wide),
            # 132 crossings on 22 strands ran for 134 s cold
            (_wide_word(22, 132), wide)]
    for mode in ("generic", "root:19"):
        for text, reason in past:
            word.write_text(text)
            start = time.perf_counter()
            code, out, err = run_cli("bracket", word, "--mode", mode)
            assert time.perf_counter() - start < 0.5, reason
            assert (code, out, err) == (1, "", f"error: {reason}\n")
    # every word of the corpus and of the benchmark stays admitted: the
    # benchmark draws words of at most MAX_CROSSINGS crossings on at most
    # MAX_WORD_WIDTH strands by a random walk of cups, crossings and caps
    inputs = _benchmark_inputs()
    rng = random.Random(0)
    words = [text.replace(";", "\n") for _, text in CLOSED_WORDS]
    words += [inputs.word_text(inputs.random_word(inputs.MAX_CROSSINGS, rng))
              for _ in range(2000)]
    for text in words:
        w = parse_word(text)
        assert max(L[-1] for L in w.layers) <= MAX_WORD_WIDTH
        assert len(w.layers) <= MAX_WORD_LAYERS
    for text in words[::100]:
        word.write_text(text)
        assert run_cli("bracket", word)[0] == 0


def test_long_bracket_word_refused_at_the_first_layer_past_the_limit(
        tmp_path):
    # 1000002 layers, 5 MB: refused without reading past layer 81, where
    # parsing the whole word first took over a second cold
    word = tmp_path / "long.word"
    word.write_text("cup 1 of 0\n" + "id 2\n" * 1000000 + "cap 1 of 2\n")
    start = time.perf_counter()
    code, out, err = run_cli("bracket", word)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (
        1, "", f"error: line {MAX_WORD_LAYERS + 1}: word reaches "
               f"{MAX_WORD_LAYERS + 1} layers, above the limit of "
               f"{MAX_WORD_LAYERS}\n")


@pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"),
                                 ArithmeticError("inexact polynomial division")])
def test_arithmetic_errors_exit_1(monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr("skeinrep.cli.verify_equivalence", fail)
    code, out, err = run_cli("homdim", "1,1", "2")
    assert (code, out) == (1, "")
    assert err == f"error: {exc}\n"
    assert "Traceback" not in err


def test_batch_errors_name_the_line():
    code, out, err = run_cli("verify", DATA / "bad_colors.batch")
    assert code == 1
    assert "bad_colors.batch:2:" in err
    code, out, err = run_cli("verify", DATA / "short_line.batch")
    assert code == 1
    assert "short_line.batch:1:" in err


def test_empty_batch_is_an_error():
    for fmt in ("text", "json"):
        code, out, err = run_cli("verify", DATA / "empty.batch",
                                 "--format", fmt)
        assert (code, out) == (1, ""), fmt
        assert err == f"error: {DATA / 'empty.batch'}: no pairs to verify\n"


def test_word_errors_name_the_line(tmp_path):
    code, out, err = run_cli("bracket", DATA / "bad.word")
    assert code == 1
    assert err.startswith("error: line 2:")
    # a blank first line, and a long word that goes wrong on its last line
    bad_cap = "cap position out of range in ('cap', 5, 2)"
    # (within the layer limit: the blank lines hold no layer)
    for text, line in (("\ncup 1 of 0\ncap 5 of 2\n", 3),
                       ("cup 1 of 0\n" + "id 2\n" * (MAX_WORD_LAYERS - 2)
                        + "\n" * (8000 - MAX_WORD_LAYERS + 2)
                        + "cap 5 of 2\n", 8002)):
        path = tmp_path / "bad.word"
        path.write_text(text)
        assert run_cli("bracket", path) == (
            1, "", f"error: line {line}: {bad_cap}\n")


def run_script(exe):
    """Run a `skeinrep` executable on one query, with this tree's `src`
    first on PYTHONPATH so that it imports this checkout, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([str(exe), "homdim", "1,1", "2"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden("homdim_11_2.txt")


def test_installed_script_smoke(tmp_path):
    # Build the launcher an installer would write for the console script
    # that pyproject.toml declares, so the check needs no install.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["skeinrep"]
    ep = EntryPoint(name="skeinrep", value=value, group="console_scripts")
    exe = tmp_path / "skeinrep"
    exe.write_text(f"#!{sys.executable}\n"
                   "import sys\n"
                   f"from {ep.module} import {ep.attr}\n"
                   f"sys.exit({ep.attr}())\n")
    exe.chmod(0o755)
    run_script(exe)


@pytest.mark.skipif(shutil.which("skeinrep") is None,
                    reason="skeinrep is not installed on PATH")
def test_console_script_on_path():
    run_script(shutil.which("skeinrep"))
