"""Tests of the benchmark itself, on a miniature configuration.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

MINI = run.Workload(
    "full3-mini", ("verify", "--family", "full", "--n", "3", "--q", "4"),
    {"passed": True, "order": 16, "closure_checked": 16 ** 3,
     "assoc_samples": 16 ** 5, "querelement_checked": 3 * 16},
)
#: the report and its digest as the package wrote them before the benchmark.
MINI_ENTRY = {
    "seed": 42,
    "sha256": "262f534ba1bf1a511d20c49e8d135d9952255ecf1f7a20611a84983f3a2f9a74",
    "report": {
        "assoc": True, "assoc_exhaustive": True, "assoc_samples": 1048576,
        "closure": True, "closure_checked": 4096, "closure_exhaustive": True,
        "closure_max_deviation": 0.0, "family": "full", "identity": "f0r0",
        "n": 3, "order": 16, "order_histogram": {"1": 8, "2": 8},
        "order_matches_paper": True, "paper_claimed_order": 16, "passed": True,
        "q": 4, "querelement": True, "querelement_checked": 48, "sampled": False,
        "seed": 42, "tolerance": 1e-12,
    },
}


def test_metric_names_and_units_are_valid():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    produced = run.end_to_end([], [0.1], [0.1])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: unit for k, (_, unit) in produced.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    # 0: root [0, 10]; 1: [1, 4] and 2: [3, 6] overlap; 3: [8, 12] runs past
    # its parent's end; 4: [2, 3] is a grandchild under span 1.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert tracing.self_times(parent, start, end) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_recorded_digests_match_recorded_reports():
    expected = json.loads(run.EXPECTED.read_text())
    for name, entry in [*expected.items(), (MINI.name, MINI_ENTRY)]:
        if "report" in entry:
            assert run.expected_sha256(dict(entry, seed=-1), entry["seed"]) == \
                entry["sha256"], name


def test_corrupted_digest_counts_as_failure():
    good = run.run_sample(MINI, 42, MINI_ENTRY)
    assert good.failure is None
    assert good.work == 4096 + 16 ** 5 + 48
    corrupted = dict(MINI_ENTRY, sha256="0" * 64)
    bad = run.run_sample(MINI, 42, corrupted)
    assert bad.failure == "output differs from the recorded digest"


def test_closed_form_mismatch_counts_as_failure():
    data = run.render_report(dict(MINI_ENTRY["report"], closure_checked=4095))
    failure, _, _ = run.check_output(MINI, 42, MINI_ENTRY, data)
    assert failure.startswith("closure_checked")


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    spans = tmp_path / "spans.npz"
    seed = 7  # not the recorded seed: the digest is derived
    untraced = run.run_sample(MINI, seed, MINI_ENTRY)
    traced = run.run_sample(MINI, seed, MINI_ENTRY, spans)
    # both passed the same sha256 gate, so their bytes are identical
    assert untraced.failure is None and traced.failure is None
    assert untraced.bytes_out == traced.bytes_out
    metrics = run.per_layer(untraced, traced, spans)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    assert metrics["oracle.closure_check.products"][0] == 16 ** 3
    assert metrics["oracle.assoc_check.tuples"][0] == 16 ** 5
    assert metrics["oracle.family_context.calls"][0] == 2
    assert metrics["phases.build.self_s"][0] > 0


@pytest.mark.parametrize("extra", [[], ["--trace", "1"]])
def test_refuses_without_the_package_source(tmp_path, extra):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload",
         "het3-exhaustive", "--seed", "1", "--seconds", "1", *extra],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
