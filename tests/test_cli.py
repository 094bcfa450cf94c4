"""Command-line interface: table export, verification, parameter products,
traces, exit codes, determinism."""

import csv
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysigma
from polysigma import cli, oracle, phases
from polysigma.cli import _result_fields, main
from polysigma.oracle import family_context
from polysigma.phases import Q12

from conftest import traced_peak


def run(args):
    return main([str(a) for a in args])


def exit_code(args):
    """The process exit code of a run, usage errors from argparse included."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# cayley


def test_cayley_pauli_q4(tmp_path):
    out = tmp_path / "pauli.csv"
    assert run(["cayley", "--family", "pauli", "--q", "4", "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["op1", "op2", "result_j", "result_k", "result_r"]
    assert len(rows) == 1 + 256
    # s1 * s2 = i s3
    assert ["s1r0", "s2r0", "3", "", "1"] in rows


def test_cayley_full_and_elementary(tmp_path):
    out = tmp_path / "full.csv"
    assert run(["cayley", "--family", "full", "--n", "3", "--q", "4",
                "--out", out]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 4096

    out2 = tmp_path / "elem.csv"
    assert run(["cayley", "--family", "elementary", "--n", "3", "--q", "4",
                "--out", out2]) == 0
    with open(out2, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 33 ** 3
    assert any(r[3] == "Z" for r in rows[1:])          # zero results present
    assert any(r[0] == "Z" for r in rows[1:])          # zero operands present


def test_cayley_budget_exceeded(tmp_path):
    out = tmp_path / "het.csv"
    code = run(["cayley", "--family", "het", "--n", "3", "--q", "4",
                "--out", out, "--budget", "1000"])
    assert code == 2
    assert not out.exists()


def test_cayley_dense_json(tmp_path):
    out = tmp_path / "pauli.json"
    assert run(["cayley", "--family", "pauli", "--q", "4", "--out", out,
                "--format", "dense-json"]) == 0
    data = json.loads(out.read_text())
    assert len(data["entries"]) == 256
    first = data["entries"][0]
    assert first["operands"] == ["s0r0", "s0r0"]
    assert first["dense"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("n", [1, 0, -3])
@pytest.mark.parametrize("family", ["elementary", "full", "het"])
def test_cayley_arity_below_two_is_input_error(tmp_path, capsys, family, n):
    out = tmp_path / "t.csv"
    code = run(["cayley", "--family", family, "--n", n, "--q", "4", "--out", out])
    assert code == 2
    assert not out.exists()
    assert f"arity must be >= 2 for family '{family}', got {n}" in capsys.readouterr().err


def _exported_labels(family, n, q):
    """Every label a Cayley table of the family writes.  het (3, 360) has
    2,073,600 labels, so there each slot code stands in both block places
    instead: a token is its slots' texts joined, so this covers every text."""
    if family == "het" and (n, q) == (3, 360):
        return [phases.label_from_slots("het", 3, q, (c, c)) for c in range(4 * q)]
    fam = family_context(family, n, q)
    return [fam.label(i) for i in range(fam.order)]


@pytest.mark.parametrize("family, n, qs", [
    ("pauli", 2, Q12), ("elementary", 3, Q12), ("elementary", 2, (360,)),
    ("full", 3, Q12), ("het", 2, Q12), ("het", 3, (4, 360)), ("het", 4, (4,)),
], ids=["pauli", "elementary-n3", "elementary-n2-q360", "full-n3", "het-n2",
        "het-n3", "het-n4-q4"])
def test_cayley_cells_need_no_csv_quoting(family, n, qs):
    # cmd_cayley writes a row as its cells joined by "," and "\r\n", which is
    # what csv.writer writes only while no cell needs quoting
    for q in qs:
        for lab in _exported_labels(family, n, q):
            for cell in [lab.token(), *_result_fields(lab)]:
                assert re.fullmatch(r"[A-Za-z0-9.]*", cell), (family, n, q, cell)


def test_cayley_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["cayley", "--family", "full", "--n", "3", "--q", "4", "--out", a])
    run(["cayley", "--family", "full", "--n", "3", "--q", "4", "--out", b])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# verify


def test_verify_full_group(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--family", "full", "--n", "3", "--q", "4",
                "--mode", "exhaustive", "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["order"] == 16
    assert report["closure"] is True and report["closure_exhaustive"] is True
    assert report["querelement"] is True


def test_verify_pauli_q12(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--family", "pauli", "--q", "12", "--out", out]) == 0
    assert json.loads(out.read_text())["order"] == 48


def test_verify_het_reports_both_orders(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--family", "het", "--n", "3", "--q", "4",
                "--mode", "sample", "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["order"] == 256
    assert report["paper_claimed_order"] == 1048576
    assert report["order_matches_paper"] is False


def test_verify_junit(tmp_path):
    out = tmp_path / "report.json"
    junit = tmp_path / "junit.xml"
    assert run(["verify", "--family", "pauli", "--q", "4", "--out", out,
                "--junit", junit]) == 0
    assert junit.read_text().startswith("<?xml")


def test_verify_exhaustive_over_budget_is_usage_error(tmp_path):
    code = run(["verify", "--family", "het", "--n", "3", "--q", "4",
                "--mode", "exhaustive", "--budget", "1000",
                "--out", tmp_path / "r.json"])
    assert code == 2


def test_exhaustive_verify_bounds_associativity_by_the_budget(tmp_path):
    # pauli q = 20 has 80^3 bracketing tuples, over the builder's default
    # associativity budget of 2^18 but within --budget
    out = tmp_path / "r.json"
    assert run(["verify", "--family", "pauli", "--q", "20", "--mode", "exhaustive",
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["assoc"] and report["assoc_exhaustive"]
    assert report["assoc_samples"] == 80 ** 3 == 512_000


@pytest.mark.parametrize("budget, message", [
    ("30000000", "error: 1981355655168 bracketing tuples exceed the budget of 30000000"),
    ("1000", "error: 23887872 products exceed the budget of 1000; switch to sampling"),
], ids=["associativity", "closure-first"])
def test_verify_refuses_either_budget_before_any_sweep(monkeypatch, capsys, tmp_path,
                                                       budget, message):
    # full (3, 72): 288^3 closure products fit the default budget, 288^5
    # bracketing tuples do not; under a budget of 1000 neither fits, and the
    # closure is refused first
    def no_sweep(*args):
        raise AssertionError("the closure sweep ran before the refusal")

    monkeypatch.setattr(oracle, "_closure_on_range", no_sweep)
    code = run(["verify", "--family", "full", "--n", "3", "--q", "72",
                "--mode", "exhaustive", "--budget", budget, "--out", tmp_path / "r.json"])
    assert code == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, message", [
    (["verify", "--family", "full", "--n", "5000", "--q", "4", "--mode", "exhaustive"],
     "error: 16^5000 products exceed the budget of 30000000; switch to sampling"),
    (["cayley", "--family", "full", "--n", "4000", "--q", "4"],
     "error: 16^4000 table rows exceed the budget of 1000000; raise --budget to proceed"),
], ids=["verify-exhaustive", "cayley"])
def test_count_too_long_to_write_is_refused_as_a_power(capsys, tmp_path, command, message):
    # 16^5000 and 16^4000 have more digits than Python writes in decimal;
    # formatting them used to escape main as a ValueError
    out = tmp_path / "out"
    assert run([*command, "--out", out]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_sampled_verify_builds_no_last_factor_table(monkeypatch, tmp_path):
    # het (4, 8) samples its closure, so no kernel call finishes every label
    builds = []
    monkeypatch.setattr(phases, "_last_factor_tables", lambda *args: builds.append(args))
    assert run(["verify", "--family", "het", "--n", "4", "--q", "8",
                "--out", tmp_path / "r.json"]) == 0
    assert builds == []


@pytest.mark.parametrize("args", [
    ["--family", "pauli", "--q", "4", "--tol", "nan"],
    ["--family", "pauli", "--q", "4", "--tol", "-1"],
    ["--family", "het", "--n", "3", "--q", "4", "--mode", "sample", "--seed", "-1"],
], ids=["tol-nan", "tol-negative", "seed-negative"])
def test_verify_bad_tolerance_or_seed_is_usage_error(tmp_path, args):
    assert exit_code(["verify", *args, "--out", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, args", [
    ("verify", ["--family", "elementary", "--n", "3", "--q", "4"]),
    ("cayley", ["--family", "pauli", "--q", "4"]),
])
def test_negative_budget_is_usage_error(capsys, tmp_path, command, args):
    # a negative verify budget made auto mode sample and pass (exit 0)
    out = tmp_path / "out"
    assert exit_code([command, *args, "--budget", "-3", "--out", out]) == 2
    assert "a budget must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_a_label_set_too_large_to_lower(monkeypatch, capsys, tmp_path):
    # het (40, 4) has 16^39 labels, which numpy cannot enumerate: the
    # refusal comes from arithmetic, before any family context is built
    def no_context(*args):
        raise AssertionError("a family context was built before the refusal")

    monkeypatch.setattr(oracle, "family_context", no_context)
    out = tmp_path / "r.json"
    assert run(["verify", "--family", "het", "--n", "40", "--q", "4", "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: {16 ** 39} labels are too many to enumerate "
        f"(at most {np.iinfo(np.intp).max})\n")
    assert not out.exists()


def test_verify_refuses_an_enumeration_beyond_physical_memory(monkeypatch, capsys, tmp_path):
    # het (3, 4) enumerated takes 256 int64 indices, 256 digits and 512
    # codes, 8,192 bytes: on a host of one 4 KiB page it is refused with
    # exit 2, no traceback and no report
    monkeypatch.setattr(phases.os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE" else 1)
    oracle.family_context.cache_clear()
    out = tmp_path / "r.json"
    assert run(["verify", "--family", "het", "--n", "3", "--q", "4", "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: enumerating 256 labels takes at least 8192 bytes, "
        "more than the 4096 bytes of physical memory\n")
    assert not out.exists()


def test_verify_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(["verify", "--family", "full", "--n", "3", "--q", "8",
             "--mode", "sample", "--seed", "7", "--out", path])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# byte-identity of the deterministic outputs (sha256)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


_HET3_EXHAUSTIVE = ["--family", "het", "--n", "3", "--q", "4", "--mode", "exhaustive"]
_HET3_EXHAUSTIVE_SHA = "1293b55648bf0515aa95481b8ed1809a2791118c2c066ba4c8c87f6e76f0a1e2"


@pytest.mark.parametrize("args, report_sha, junit_sha", [
    (["--family", "pauli", "--q", "4"],
     "bb0baa4dd231f3ebeb6665d74b689aa34402ccb6f057a33f3bcad3948e79240b",
     "9dac79ddaebc08f8b46bdf8211054d51627cbab98d50683d3709ebdf096be9e9"),
    (["--family", "elementary", "--n", "3", "--q", "4"],
     "582e406293260ff4918c41454954565a3875314762ee2f1e7c377a54100c1499",
     "57271ee15ac75e30f91bbef72cc04b89ba904f983618ec84a8934c2bc16e4fe2"),
    (["--family", "full", "--n", "3", "--q", "8", "--mode", "sample", "--seed", "7"],
     "03e8149c53d3818687b054c84c6edd46e34223797a1551f66a0a4daac9be9307",
     "c2670c6cb9320e16e92ea585ca74d95a56ce40423d0c9e65a78ed60163b83300"),
    (["--family", "het", "--n", "3", "--q", "4", "--mode", "sample"],
     "4e8048a12fb8c77e6dbc6f56f46328e23a04987534b4a212d7f9c2c4f5d68cc4",
     "3977469830abb8795d13278cbc46ab30f4b33ff42e2497d29cd512f951757b57"),
    (["--family", "het", "--n", "4", "--q", "8"],
     "23992fdacaf45ce8cdd5eefd70add0d846c676e3b6dc8886ba1b0a0776b7ee80",
     "b3be602845808dabd2752400b834d984ab317c045541a99f4697c340f8373677"),
    # the benchmark's het3-exhaustive workload
    (_HET3_EXHAUSTIVE, _HET3_EXHAUSTIVE_SHA,
     "3977469830abb8795d13278cbc46ab30f4b33ff42e2497d29cd512f951757b57"),
    # exhaustive under auto: 23,887,872 tuples, 10,314 rounding classes
    # claimed in prefix blocks of 21 heads
    (["--family", "full", "--n", "3", "--q", "72"],
     "1dd6cdac428f26af42f295cd8cd9748f306b803297f30c4ad169bece34f4fb67",
     "d887f75d6889e97c71bf27d74f0b946fe28b4013a198dfee0e64d5588396ab37"),
], ids=["pauli-q4", "elementary-n3-q4", "full-n3-q8-seed7", "het-n3-q4-sample",
        "het-n4-q8", "het-n3-q4-exhaustive", "full-n3-q72"])
def test_verify_outputs_are_pinned(tmp_path, args, report_sha, junit_sha):
    out, junit = tmp_path / "r.json", tmp_path / "j.xml"
    assert run(["verify", *args, "--out", out, "--junit", junit]) == 0
    assert (_sha256(out), _sha256(junit)) == (report_sha, junit_sha)


_CAYLEY_PINS = {
    "pauli-q4": (["--family", "pauli", "--q", "4"],
                 "dd6c5a2917eba84ef2e057c7356474fa9c865846c6eac11c20bfb947ecd862d2"),
    "full-n3-q4": (["--family", "full", "--n", "3", "--q", "4"],
                   "6f0b7e9dabade178563b1cb3efdb7423b75a7ea0f50c744e8760002b98696233"),
    "elementary-n3-q4": (["--family", "elementary", "--n", "3", "--q", "4"],
                         "b9eb41c79fd0a9f35e98113ddadd7e3ca0e9816c076be11161bacf6e64da4ab2"),
    "elementary-n2-q4": (["--family", "elementary", "--n", "2", "--q", "4"],
                         "db8b34df040b81ad3c766fded40a5a59375167e90f04d35d078af33bd0e82599"),
    "het-n2-q4": (["--family", "het", "--n", "2", "--q", "4"],
                  "d8ad3b0d2ac28e0a78ea47995ddcea2bac92d21a5bd3d1748498e195e323640b"),
    "pauli-q4-dense-json": (
        ["--family", "pauli", "--q", "4", "--format", "dense-json"],
        "758c624094ac55c413568c70f0890f8399e86a5eee2a5c6e6a9d2c1f6f846f98"),
    "full-n3-q4-dense-json": (
        ["--family", "full", "--n", "3", "--q", "4", "--format", "dense-json"],
        "b147f5ddf591625efb8e6635e023ac84e99834d7daa06ec31a6e562b84295be2"),
    # the benchmark's export: 912,673 rows in blocks of 42 prefixes
    "elementary-n3-q12": (["--family", "elementary", "--n", "3", "--q", "12"],
                          "96f77512497a1b42d8d066b589ccfeb335d9e5d2c4a92f07520b1fd2e8e6ff36"),
}


@pytest.mark.parametrize("args, sha", _CAYLEY_PINS.values(), ids=_CAYLEY_PINS.keys())
def test_cayley_outputs_are_pinned(tmp_path, args, sha):
    out = tmp_path / "table"
    assert run(["cayley", *args, "--out", out]) == 0
    assert _sha256(out) == sha


@pytest.mark.parametrize("chunk", [5, 48])
@pytest.mark.parametrize("pin", ["full-n3-q4", "full-n3-q4-dense-json", "elementary-n3-q4"])
def test_cayley_prefix_blocks_keep_the_pinned_outputs(monkeypatch, tmp_path, chunk, pin):
    # 5 rows is less than one run of the 16 full or 33 elementary labels, so
    # each block is one prefix; 48 rows make blocks of 3 full prefixes, which
    # leave a last block of 1 of the 256 prefixes.  Neither divides the rows.
    monkeypatch.setattr(cli, "_CAYLEY_CHUNK", chunk)
    args, sha = _CAYLEY_PINS[pin]
    out = tmp_path / "table"
    assert run(["cayley", *args, "--out", out]) == 0
    assert _sha256(out) == sha


@pytest.mark.parametrize("family, n, q", [("full", 4, 4), ("elementary", 3, 8)])
def test_cayley_csv_matches_a_literal_table(tmp_path, family, n, q):
    # each row written by csv.writer from its own product, one row-wise
    # index_mult over every tuple; these 65,536 and 274,625 rows repeat 16
    # and 65 distinct result rows across 4,096 and 4,225 prefixes
    fam = family_context(family, n, q)
    tuples = phases._build_tuples(fam.order, fam.n, 0, fam.order ** fam.n)
    labels = [fam.label(i) for i in range(fam.order)]
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow([f"op{i + 1}" for i in range(fam.n)]
                    + ["result_j", "result_k", "result_r"])
    for ops, r in zip(tuples.tolist(), fam.index_mult(tuples).tolist()):
        writer.writerow([labels[i].token() for i in ops] + _result_fields(labels[r]))
    out = tmp_path / "t.csv"
    assert run(["cayley", "--family", family, "--n", n, "--q", q, "--out", out]) == 0
    assert out.read_bytes() == want.getvalue().encode()


def test_cayley_csv_writer_holds_one_block(tmp_path):
    # the 912,673-row table is 23 MB of text; a block of 42 prefixes' text
    # and the cells of its 97 distinct result rows take well under 1 MB
    out = tmp_path / "t.csv"
    code, peak = traced_peak(lambda: run(
        ["cayley", "--family", "elementary", "--n", "3", "--q", "12", "--out", out]))
    assert code == 0 and out.stat().st_size > 20 * 2 ** 20
    assert peak <= 2 * 2 ** 20


def test_cayley_one_factor_prefixes_keep_no_rows(tmp_path):
    # each of the 480 one-factor prefixes of pauli q = 120 meets its result
    # row once, so none is kept: keeping all 480 rows of 480 cells peaked at
    # 16 MB traced, against 1.5 MB for the whole 230,400-row export
    out = tmp_path / "t.csv"
    code, peak = traced_peak(lambda: run(
        ["cayley", "--family", "pauli", "--q", "120", "--out", out]))
    assert code == 0 and out.stat().st_size > 4 * 2 ** 20
    assert peak <= 2 * 2 ** 20


def test_cayley_dense_json_is_streamed(tmp_path):
    # entries are written as they are made: building all 1,024 first, as a
    # payload for one json.dump, peaked at 1.2 MB traced, against 0.3 MB
    out = tmp_path / "t.json"
    code, peak = traced_peak(lambda: run(
        ["cayley", "--family", "pauli", "--q", "8", "--format", "dense-json", "--out", out]))
    assert code == 0 and len(json.loads(out.read_text())["entries"]) == 1024
    assert peak <= 0.75 * 2 ** 20


def test_cayley_unwritable_out_is_refused_before_any_work(monkeypatch, capsys, tmp_path):
    def no_work(*args):
        raise AssertionError("the table was built before its file was opened")

    monkeypatch.setattr(oracle, "family_context", no_work)
    out = tmp_path / "missing" / "t.csv"
    for fmt in ("csv", "dense-json"):
        assert run(["cayley", "--family", "pauli", "--format", fmt, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot open {out}: No such file or directory\n")


@pytest.mark.parametrize("flag", ["--out", "--junit"])
def test_verify_unwritable_output_is_refused_before_any_sweep(monkeypatch, capsys, tmp_path,
                                                              flag):
    # an unwritable --out or --junit is refused with exit 2 and one error
    # line before any closure check runs, and an existing --out keeps its
    # bytes; the report used to be written only after the sweeps, and with
    # only --junit unwritable it was written before the refusal
    checks, real = [], oracle.closure_check
    monkeypatch.setattr(oracle, "closure_check", lambda *args, **kwargs: (
        checks.append(args) or real(*args, **kwargs)))
    paths = {"--out": tmp_path / "r.json", "--junit": tmp_path / "j.xml"}
    paths["--out"].write_bytes(b"an earlier report\n")
    paths[flag] = bad = tmp_path / "missing" / "x"
    assert run(["verify", *_HET3_EXHAUSTIVE,
                "--out", paths["--out"], "--junit", paths["--junit"]]) == 2
    assert capsys.readouterr().err == f"error: cannot open {bad}: No such file or directory\n"
    assert checks == []
    assert (tmp_path / "r.json").read_bytes() == b"an earlier report\n"
    assert not (tmp_path / "j.xml").exists()


@pytest.mark.parametrize("command, name, reason", [
    (["verify", "--family", "pauli", "--q", "4", "--out"], ".", "Is a directory"),
    (["trace", "--in"], "missing.json", "No such file or directory"),
    (["param-mul", "--n", "2", "--in"], "missing.json", "No such file or directory"),
], ids=["verify-out-directory", "trace-missing-in", "param-mul-missing-in"])
def test_file_that_cannot_be_opened_is_input_error(capsys, tmp_path, command, name, reason):
    # these used to be reported as malformed input
    path = tmp_path / name
    assert run([*command, path]) == 2
    assert capsys.readouterr().err == f"error: cannot open {path}: {reason}\n"


# ---------------------------------------------------------------------------
# param-mul


def test_param_mul_identity_tuple(tmp_path):
    infile = tmp_path / "in.json"
    ident = {"arity": 2, "blocks": [{"x0": 1.0, "x": [0.0, 0.0, 0.0]}]}
    infile.write_text(json.dumps({"arity": 2, "tuples": [[ident, ident]]}))
    out = tmp_path / "out.json"
    assert run(["param-mul", "--n", "2", "--in", infile, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["max_deviation"] == 0.0
    assert data["results"][0]["element"]["blocks"][0]["x0"] == 1.0


def test_param_mul_quaternion_units(tmp_path):
    infile = tmp_path / "in.json"
    i = {"arity": 2, "blocks": [{"x0": 0.0, "x": [1.0, 0.0, 0.0]}]}
    j = {"arity": 2, "blocks": [{"x0": 0.0, "x": [0.0, 1.0, 0.0]}]}
    infile.write_text(json.dumps({"arity": 2, "tuples": [[i, j]]}))
    out = tmp_path / "out.json"
    assert run(["param-mul", "--n", "2", "--in", infile, "--out", out]) == 0
    data = json.loads(out.read_text())
    block = data["results"][0]["element"]["blocks"][0]
    assert block["x0"] == pytest.approx(0.0)
    assert block["x"] == pytest.approx([0.0, 0.0, 1.0])


def test_param_mul_random_batches(tmp_path):
    for n in (2, 3):
        out = tmp_path / f"r{n}.json"
        assert run(["param-mul", "--n", n, "--random", 1000, "--seed", 1,
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["count"] == 1000
        assert data["max_deviation"] <= 1e-12


def test_param_mul_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(["param-mul", "--n", "3", "--random", "50", "--seed", "9",
             "--out", path])
    assert a.read_bytes() == b.read_bytes()


def test_param_mul_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["param-mul", "--n", "2", "--in", bad]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"arity": 2, "tuples": [[{"x0": 1.0}]]}))
    assert run(["param-mul", "--n", "2", "--in", bad2]) == 2
    bad3 = tmp_path / "bad3.json"
    # violates the unit-norm constraint
    el = {"arity": 2, "blocks": [{"x0": 2.0, "x": [0.0, 0.0, 0.0]}]}
    bad3.write_text(json.dumps({"arity": 2, "tuples": [[el, el]]}))
    assert run(["param-mul", "--n", "2", "--in", bad3]) == 2
    bad4 = tmp_path / "bad4.json"
    bad4.write_text("[1, 2]")  # valid JSON, but not an object
    assert run(["param-mul", "--n", "2", "--in", bad4]) == 2


_UNIT = {"x0": 1.0, "x": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("element", [
    {"arity": 3.9, "blocks": [_UNIT, _UNIT]},                    # truncated by int()
    {"arity": True, "blocks": [_UNIT, _UNIT]},
    {"arity": 3, "blocks": [{"x0": "1.0", "x": [0.0, 0.0, 0.0]}, _UNIT]},
    {"arity": 3, "blocks": [{"x0": "a", "x": [0.0, 0.0, 0.0]}, _UNIT]},
    {"arity": 3, "blocks": [{"x0": True, "x": [0.0, 0.0, 0.0]}, _UNIT]},
    {"arity": 3, "blocks": [{"x0": 1.0, "x": [0.0, False, 0.0]}, _UNIT]},
], ids=["arity-float", "arity-bool", "x0-string", "x0-word", "x0-bool", "x-bool"])
def test_param_mul_malformed_element_is_input_error(tmp_path, element):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"arity": 3, "tuples": [[element] * 3]}))
    assert exit_code(["param-mul", "--n", "3", "--in", bad]) == 2


def test_param_mul_negative_seed_is_usage_error():
    assert exit_code(["param-mul", "--random", "2", "--seed", "-1"]) == 2


@pytest.mark.parametrize("args", [
    ["--random", "-1"],
    ["--random", "2", "--tol", "nan"],
    ["--random", "2", "--tol", "0"],
], ids=["count-negative", "tol-nan", "tol-zero"])
def test_param_mul_bad_count_or_tolerance_is_usage_error(tmp_path, args):
    # a negative count would write an empty result set and pass (exit 0),
    # and a NaN tolerance would fail every deviation check (exit 1)
    out = tmp_path / "r.json"
    assert exit_code(["param-mul", *args, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("source", ["random", "file"])
def test_param_mul_without_tuples_is_input_error(tmp_path, capsys, source):
    # zero tuples, drawn or read, would check nothing and pass with count 0
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"arity": 3, "tuples": []}))
    out = tmp_path / "r.json"
    args = ["--random", "0"] if source == "random" else ["--in", empty]
    assert run(["param-mul", "--n", "3", *args, "--out", out]) == 2
    assert capsys.readouterr().err == "error: at least one tuple is needed, got none\n"
    assert not out.exists()


@pytest.mark.parametrize("tuples", [{"a": 1}, [[1, 2, 3]], 5, None],
                         ids=["object", "numbers", "number", "missing"])
def test_param_mul_malformed_tuples_is_input_error(tmp_path, capsys, tuples):
    # each used to reach main's catch-all as a Python error message
    payload = {"arity": 3} if tuples is None else {"arity": 3, "tuples": tuples}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run(["param-mul", "--n", "3", "--in", bad]) == 2
    assert capsys.readouterr().err == (
        "error: tuples must be a list of lists of element objects\n")


def test_param_mul_mixed_arities_is_input_error(tmp_path):
    unit = {"x0": 1.0, "x": [0.0, 0.0, 0.0]}
    ternary = {"arity": 3, "blocks": [unit, unit]}
    binary = {"arity": 2, "blocks": [unit]}
    bad = tmp_path / "mixed.json"
    bad.write_text(json.dumps({"arity": 3, "tuples": [[ternary, binary, ternary]]}))
    assert run(["param-mul", "--n", "3", "--in", bad]) == 2


# ---------------------------------------------------------------------------
# trace


def test_trace_identity_element(tmp_path, capsys):
    infile = tmp_path / "e.json"
    infile.write_text(json.dumps({
        "arity": 4,
        "blocks": [{"x0": 1.0, "x": [0.0, 0.0, 0.0]}] * 3,
    }))
    out = tmp_path / "t.json"
    assert run(["trace", "--in", infile, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["ordinary_trace"] == [0.0, 0.0]
    assert data["polyadic_trace"] == [6.0, 0.0]
    stdout = capsys.readouterr().out
    assert "polyadic trace" in stdout


def test_trace_identity_coefficients(tmp_path):
    # scalar blocks (2, 3, 1/6): traceless dense form, polyadic trace 2*sum
    infile = tmp_path / "el.json"
    infile.write_text(json.dumps({
        "arity": 4,
        "blocks": [
            {"x0": 2.0, "x": [0.0, 0.0, 0.0]},
            {"x0": 3.0, "x": [0.0, 0.0, 0.0]},
            {"x0": 1.0 / 6.0, "x": [0.0, 0.0, 0.0]},
        ],
    }))
    out = tmp_path / "t.json"
    assert run(["trace", "--in", infile, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["ordinary_trace"] == [0.0, 0.0]
    assert data["polyadic_trace"][0] == pytest.approx(2 * (2 + 3 + 1 / 6))


def test_trace_random_su2_element(tmp_path):
    rng = np.random.default_rng(4)
    from polysigma.su2 import PolyadicSU2Element

    e = PolyadicSU2Element.random(rng, 3)
    infile = tmp_path / "m.json"
    infile.write_text(json.dumps(e.to_dict()))
    out = tmp_path / "t.json"
    assert run(["trace", "--in", infile, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["polyadic_trace"][0] == pytest.approx(2 * sum(p.x0 for p in e.params))


def test_trace_memory_does_not_grow_with_arity_squared(tmp_path):
    # the dense form of an arity-2001 element is 4000 x 4000 complex: lowering
    # it for the ordinary trace peaked at 245 MB traced, against 1.7 MB for
    # reading the trace from the 2000 blocks
    infile = tmp_path / "e.json"
    infile.write_text(json.dumps({
        "arity": 2001,
        "blocks": [{"x0": 1.0, "x": [0.0, 0.0, 0.0]}] * 2000,
    }))
    out = tmp_path / "t.json"
    code, peak = traced_peak(lambda: run(["trace", "--in", infile, "--out", out]))
    assert code == 0 and peak <= 8 * 2 ** 20
    data = json.loads(out.read_text())
    assert data["ordinary_trace"] == [0.0, 0.0]
    assert data["polyadic_trace"] == [4000.0, 0.0]


def test_trace_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert run(["trace", "--in", bad]) == 2


@pytest.mark.parametrize("arity, block", [
    (3, {"x0": "abc", "x": [0.0, 0.0, 0.0]}),     # non-numeric x0
    (3, {"x0": 1.0, "x": [0.0, 0.0]}),            # two x components
    (3, {"x0": 1.0, "x": [0.0, 0.0, 0.0, 0.0]}),  # four x components
    (3, {"x0": 1.0, "x": [0.0, "y", 0.0]}),       # non-numeric x component
    ("three", {"x0": 1.0, "x": [0.0, 0.0, 0.0]}),  # non-integer arity
    (4, {"x0": 1.0, "x": [0.0, 0.0, 0.0]}),       # 2 blocks for arity 4
    (True, {"x0": 1.0, "x": [0.0, 0.0, 0.0]}),    # bool arity
    (3, {"x0": True, "x": [0.0, 0.0, 0.0]}),      # bool x0
    (3, {"x0": 10 ** 400, "x": [0.0, 0.0, 0.0]}),  # x0 too large for a float
])
def test_trace_malformed_element_is_input_error(tmp_path, arity, block):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"arity": arity, "blocks": [block, block]}))
    assert run(["trace", "--in", bad]) == 2


def test_trace_deeply_nested_json_is_input_error(tmp_path, capsys):
    # deeper than the JSON parser's recursion allows
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["trace", "--in", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed input") and "Traceback" not in err


@pytest.mark.parametrize("arity", [2, 3])
def test_trace_that_overflows_is_refused(tmp_path, capsys, arity):
    # x0 = x1 = 1e308 overflows the polyadic trace, and at arity 2 the
    # ordinary one; JSON cannot hold the infinity, so no file is written
    infile = tmp_path / "big.json"
    infile.write_text(json.dumps({
        "arity": arity,
        "blocks": [{"x0": 1e308, "x": [1e308, 0.0, 0.0]}] * (arity - 1),
    }))
    out = tmp_path / "t.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["trace", "--in", infile, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: the trace is not finite")
    assert not out.exists()


# ---------------------------------------------------------------------------
# input files


@pytest.mark.parametrize("text", [
    b"\xff\xfe{",
    b'{"arity": 1' + b"0" * 5000 + b', "blocks": []}',
], ids=["not-utf8", "arity-of-5000-digits"])
@pytest.mark.parametrize("command", [["trace"], ["param-mul", "--n", "3"]],
                         ids=["trace", "param-mul"])
def test_undecodable_file_is_malformed_input(tmp_path, capsys, command, text):
    # each used to escape main as a UnicodeDecodeError or a ValueError
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert run([*command, "--in", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed input (") and err.count("\n") == 1


def _valid_files(n):
    """An element file of arity ``n`` and a tuple file of ``n`` such elements."""
    element = {"arity": n, "blocks": [{"x0": 0.6, "x": [0.0, 0.8, 0.0]}] * (n - 1)}
    return element, {"arity": n, "tuples": [[element] * n]}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)
#: JSON texts put in place of a value, among them the NaN and Infinity
#: literals that JSON does not define and an integer too long for Python to read
_RAW = st.sampled_from(["true", "null", '"3"', "[]", "{}", "2.0", "-0.0", "1e308", "1e400",
                        "1" + "0" * 400, "NaN", "Infinity", "-Infinity", "9" * 5000])
_HOLE = "\0hole"


@st.composite
def _mutated(draw, doc):
    """``doc`` as JSON text with one value dropped, repeated or replaced."""
    doc = json.loads(json.dumps(doc))  # a copy that shares no node
    spots = []

    def walk(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            spots.append((node, key))
            walk(child)

    walk(doc)
    node, key = draw(st.sampled_from(spots))
    how = draw(st.sampled_from(["drop", "repeat", "replace"]))
    if how == "drop":
        del node[key]
    elif how == "repeat" and isinstance(node, list):
        node.append(node[key])
    else:
        node[key] = _HOLE
        return json.dumps(doc).replace(json.dumps(_HOLE), draw(_RAW | _JSON.map(json.dumps)))
    return json.dumps(doc)


#: an arity and the bytes of a tuple or element file of that arity, as is
#: or mutated once, of any JSON value, or of bytes that are mostly not UTF-8
_INPUT_FILES = st.one_of([st.tuples(st.just(n), st.one_of(
    st.sampled_from(_valid_files(n)).map(json.dumps),
    *map(_mutated, _valid_files(n)),
    _JSON.map(json.dumps),
).map(str.encode) | st.binary(max_size=12)) for n in (2, 3)])


def _refuse_constant(name):
    raise ValueError(f"{name} in an output file")


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_INPUT_FILES)
def test_input_files_keep_the_exit_code_contract(case):
    # whatever the file holds, trace and param-mul exit 0, 1 or 2 with no
    # traceback; a refusal is one error line and writes nothing, and what is
    # written is strict JSON
    n, text = case
    with tempfile.TemporaryDirectory() as tmp:
        infile, out = Path(tmp, "in.json"), Path(tmp, "out.json")
        infile.write_bytes(text)
        for command in (["trace"], ["param-mul", "--n", str(n)]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = exit_code([*command, "--in", infile, "--out", out])
            err = err.getvalue()
            assert code in (0, 1, 2) and "Traceback" not in err
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1
                assert not out.exists()
            else:
                json.loads(out.read_text(), parse_constant=_refuse_constant)
                out.unlink()


# ---------------------------------------------------------------------------
# rules


_RULES = {  # kind: (rows, sha256 of the CSV)
    "full": (64, "7aaff7b7519cda47c03bdc0a67a25824b70cee9925c899a66480a00f4381bcfd"),
    "elementary": (512, "6cadeef8787e7fdfcc2b13e48dc53227d84a89a14efb6cc83b3df1480dc3ded8"),
}


@pytest.mark.parametrize("kind", _RULES)
def test_rules_dump(tmp_path, kind):
    # the bytes are pinned: every ternary rule row, its order and its format
    count, sha = _RULES[kind]
    out = tmp_path / "rules.csv"
    assert run(["rules", "--kind", kind, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lhs_indices", "rhs_label", "phase_exponent"]
    assert len(rows) == 1 + count
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


# ---------------------------------------------------------------------------
# python -m polysigma

ROOT = Path(__file__).resolve().parent.parent


def _run_module(*args, **env):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run([sys.executable, "-m", "polysigma", *map(str, args)],
                           capture_output=True, text=True, timeout=120, env=env)


def test_module_entry_point_runs_the_cli(tmp_path):
    # a checkout runs the CLI without installing, as it runs the tests
    proc = _run_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: polysigma")
    via_module, via_main = tmp_path / "m.json", tmp_path / "c.json"
    proc = _run_module("verify", "--family", "pauli", "--q", "4", "--out", via_module)
    assert proc.returncode == 0, proc.stderr
    assert run(["verify", "--family", "pauli", "--q", "4", "--out", via_main]) == 0
    assert via_module.read_bytes() == via_main.read_bytes()


#: the package's public names, by the module each lives in
_PUBLIC = {
    "errors": ["ArityError", "BudgetExceededError", "DomainError", "ValidationError"],
    "matrices": ["BlockCyclicMatrix", "det", "hadamard", "hermitian", "mat_mul", "sigma",
                 "trace"],
    "phases": ["Q12", "ElementaryLabel", "FullLabel", "HetLabel", "PauliLabel",
               "StructureReport", "ZeroLabel", "build_elementary_semigroup",
               "build_full_group", "build_het_group", "build_pauli_group",
               "elementary_nary_mul", "full_nary_mul", "full_querelement", "het_nary_mul",
               "het_querelement", "levi_civita", "pauli_mul", "root_of_unity"],
    "sigma_algebra": ["ElementarySigma", "FullSigma", "HetSigma", "elementary", "full", "het",
                      "reduce_sigma_word"],
    "su2": ["PolyadicSU2Element", "SU2Params", "binary_param_mul", "identity_element",
            "invariant_i2", "nary_product", "polyadic_identity", "polyadic_trace",
            "querelement", "ternary_param_mul"],
}


def test_a_verify_start_imports_only_what_verify_runs():
    # the package resolves its names on first use, so a fresh start that
    # imports cli and oracle, as verify and cayley do, and lowers and
    # verifies labels, loads neither su2, sigma_algebra nor xml; importing
    # the package alone loads no module, and a submodule is still one
    # attribute away
    code = ("import json, sys\n"
            "import polysigma\n"
            "bare = sorted(m for m in sys.modules if m.startswith('polysigma.'))\n"
            "via_attribute = polysigma.phases.__name__\n"
            "from polysigma import cli, oracle\n"
            "from polysigma.phases import PauliLabel, pauli_mul\n"
            "a, b = PauliLabel(4, 1, 0), PauliLabel(4, 2, 0)\n"
            "oracle.lower(a)\n"
            "assert oracle.verify(oracle.VerificationCase('pauli', (a, b),\n"
            "                                            pauli_mul(a, b))).passed\n"
            "print(json.dumps([bare, via_attribute, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    bare, via_attribute, loaded = json.loads(proc.stdout)
    assert bare == [] and via_attribute == "polysigma.phases"
    assert not {"polysigma.su2", "polysigma.sigma_algebra", "xml.etree"} & set(loaded)
    assert sorted(polysigma.__all__) == sorted(
        [name for names in _PUBLIC.values() for name in names] + ["__version__"])
    for home, names in _PUBLIC.items():
        module = importlib.import_module(f"polysigma.{home}")
        for name in names:
            assert getattr(polysigma, name) is getattr(module, name), name
    assert not hasattr(polysigma, "no_such_name")


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_het3_exhaustive_report_is_pinned_under_other_blas_kernels(tmp_path, coretype):
    # the criterion 9 report holds the same bytes whichever OpenBLAS kernel
    # forms the products; the kernel is forced in the child process only
    out = tmp_path / "r.json"
    proc = _run_module("verify", *_HET3_EXHAUSTIVE, "--out", out, OPENBLAS_CORETYPE=coretype)
    assert proc.returncode == 0, proc.stderr
    assert _sha256(out) == _HET3_EXHAUSTIVE_SHA


# ---------------------------------------------------------------------------
# benchmark hooks


def test_benchmark_tracer_installs_and_verify_runs(tmp_path):
    # perfbench/tracing.py wraps module attributes of cli, phases, oracle and
    # matrices and swaps the index_mult field of the family context; a renamed
    # hook breaks `perfbench/run.py --trace 1`
    code = ("import json, sys\n"
            "import tracing\n"
            "from polysigma import cli\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            "code = cli.main(['verify', '--family', 'full', '--n', '3', '--q', '4',\n"
            "                 '--out', sys.argv[1]])\n"
            "print(json.dumps(sorted({tracer.names[i] for i in tracer.name_id})))\n"
            "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    spans = set(json.loads(proc.stdout))
    assert {"cli.main", "phases.build", "oracle.closure_check", "oracle.assoc_check",
            "oracle.family_context", "oracle.index_mult",
            "oracle.querelement_check"} <= spans
