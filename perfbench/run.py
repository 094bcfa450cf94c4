"""polysigma benchmark: the oracle, label and export paths, end to end.

Usage (from the root of a checkout; the package is imported from its src/):

    python3 perfbench/run.py --workload het3-exhaustive --seed 42 --seconds 40 --trace 0

``--workload all`` runs every workload in turn. Each sample is one call of
``polysigma.cli.main`` in a fresh interpreter (perfbench/child.py), started
one at a time from this process with ``oracle.worker_count()`` at its
default. Every output is checked against closed-form counts and a recorded
digest; a sample that fails the check contributes no timing. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced sample and reports the per-layer metrics from the traced one. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for why each workload is here and why run and CPU
time are gated relative to a reference mix timed throughout the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 42
#: extra interpreter starts per run, so setup_s is a median of several.
#: Half run before the samples and half after, so that the reference times
#: they take bracket the samples.
SETUP_PROBES = 6
#: a sample that runs longer than this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VERIFY_WORK = ("closure_checked", "assoc_samples", "querelement_checked")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    #: output field -> the value its closed form gives.
    closed_form: dict

    @property
    def verifies(self) -> bool:
        return self.argv[0] == "verify"


HET3_ORDER = (4 * 4) ** 2
HET4_ORDER = (4 * 8) ** 3
WORKLOADS = {w.name: w for w in (
    Workload(
        "het3-exhaustive",
        ("verify", "--family", "het", "--n", "3", "--q", "4", "--mode", "exhaustive"),
        {"passed": True, "order": HET3_ORDER, "closure_exhaustive": True,
         "closure_checked": HET3_ORDER ** 3, "assoc_samples": 100_000,
         "querelement_checked": 3 * HET3_ORDER},
    ),
    Workload(
        "het4-elements",
        ("verify", "--family", "het", "--n", "4", "--q", "8"),
        {"passed": True, "order": HET4_ORDER, "closure_exhaustive": False,
         "closure_checked": 100_000, "assoc_samples": 100_000,
         "querelement_checked": 4 * HET4_ORDER},
    ),
    Workload(
        "cayley-elementary",
        ("cayley", "--family", "elementary", "--n", "3", "--q", "12"),
        {"rows": (4 * 12 * 2 + 1) ** 3},
    ),
)}


class Refused(Exception):
    """The benchmark cannot measure this checkout."""


# ---------------------------------------------------------------------------
# output gate


def render_report(report: dict) -> bytes:
    """A verify report as the CLI writes it."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def expected_sha256(entry: dict, seed: int) -> str:
    """Digest of the correct output for ``seed``.

    ``entry`` holds the digest recorded at one seed and, for reports, the
    report itself: the only report field that depends on the seed is
    ``seed`` (the sampled closure of het4 reaches the same worst deviation
    at every seed), so other seeds' digests follow from it.
    """
    if "report" not in entry or seed == entry["seed"]:
        return entry["sha256"]
    return hashlib.sha256(render_report(dict(entry["report"], seed=seed))).hexdigest()


def check_output(workload: Workload, seed: int, entry: dict, data: bytes):
    """(failure reason or None, work units done, table rows written)."""
    if workload.verifies:
        fields = json.loads(data)
        work = sum(fields[k] for k in VERIFY_WORK)
        rows = 0
    else:
        rows = data.count(b"\n") - 1
        fields = {"rows": rows}
        work = rows
    for key, want in workload.closed_form.items():
        if fields.get(key) != want:
            return f"{key} is {fields.get(key)!r}, closed form gives {want!r}", work, rows
    if hashlib.sha256(data).hexdigest() != expected_sha256(entry, seed):
        return "output differs from the recorded digest", work, rows
    return None, work, rows


# ---------------------------------------------------------------------------
# samples


@dataclass
class Sample:
    setup_s: float
    failure: str | None = None
    run_s: float = 0.0
    cpu_s: float = 0.0
    refs: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    work: int = 0
    rows: int = 0
    bytes_out: int = 0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """This environment without POLYSIGMA_THREADS or PYTHONPATH, and with
    BLAS threads capped at nproc."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("POLYSIGMA_THREADS", "PYTHONPATH")}
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        if var in env and (not env[var].isdigit() or int(env[var]) > cap):
            env[var] = str(cap)
    return env


def spawn(args: list[str]) -> tuple[float, dict, str, int]:
    """Run child.py; (set-up seconds, READY info, rest of stdout, exit code)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return setup_s, {}, "", -9
    if not first.startswith("READY "):
        raise Refused(f"polysigma did not import from {ROOT / 'src'} "
                      f"(child exit {proc.returncode})")
    return setup_s, json.loads(first[len("READY "):]), rest, proc.returncode


def probe() -> tuple[float, dict, list[float]]:
    """(set-up seconds, READY info, reference times) of one bare start."""
    setup_s, info, rest, _ = spawn(["probe"])
    src = (ROOT / "src").resolve()
    if not Path(info["polysigma_file"]).resolve().is_relative_to(src):
        raise Refused(f"polysigma imported from {info['polysigma_file']}, "
                      f"not from {src}")
    return setup_s, info, json.loads(rest)["ref_s"]


def run_sample(workload: Workload, seed: int, entry: dict,
               spans: Path | None = None) -> Sample:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-{os.getpid()}.{'json' if workload.verifies else 'csv'}"
    argv = [*workload.argv, "--out", str(out)]
    if workload.verifies:
        argv += ["--seed", str(seed)]
    setup_s, _, rest, rc = spawn(["run", str(spans or "-"), "--", *argv])
    try:
        if rc != 0:
            return Sample(setup_s, f"child exit {rc}")
        res = json.loads(rest.splitlines()[-1])
        if res["rc"] != 0:
            return Sample(setup_s, f"polysigma exit {res['rc']}")
        data = out.read_bytes()
    except OSError as exc:
        return Sample(setup_s, f"no output ({exc})")
    finally:
        out.unlink(missing_ok=True)
    try:
        failure, work, rows = check_output(workload, seed, entry, data)
    except ValueError as exc:
        return Sample(setup_s, f"report is not JSON ({exc})")
    return Sample(setup_s, failure, res["run_s"], res["cpu_s"], res["ref_s"],
                  res["peak_rss_mb"], work, rows,
                  len(data) + len(res["stdout"].encode()))


# ---------------------------------------------------------------------------
# one measured run


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(info: dict) -> dict:
    env = child_env()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "blas": info["blas"],
        "blas_threads": {v: env.get(v) for v in BLAS_THREAD_VARS},
        "POLYSIGMA_THREADS": os.environ.get("POLYSIGMA_THREADS"),
        "worker_count": info["worker_count"],
        "commit": git_commit(ROOT),
        "polysigma_file": info["polysigma_file"],
    }


def tail_percentile(values: list[float]):
    """(p, value) for the highest usual percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    for p in (99.9, 99, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=1000)[round(p * 10) - 1]
    return None


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def raw_times(ok: list[Sample], refs: list[float]) -> dict:
    """Medians as the clock read them; printed, but not the gated metrics."""
    return {
        "run_s": (_median([s.run_s for s in ok]), "s"),
        "cpu_s": (_median([s.cpu_s for s in ok]), "s"),
        "work_per_s": (_median([s.work / s.run_s for s in ok]), "1/s"),
        "ref_s": (_median(refs), "s"),
    }


def end_to_end(ok: list[Sample], setups: list[float], refs: list[float]) -> dict:
    """The gated metrics. Run and CPU time are divided by the run's median
    reference time, which cancels the machine's drift in speed."""
    ref_s = _median(refs) or 1.0
    return {
        "run_per_ref": (_median([s.run_s for s in ok]) / ref_s, "ratio"),
        "cpu_per_ref": (_median([s.cpu_s for s in ok]) / ref_s, "ratio"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([s.peak_rss_mb for s in ok]), "MB"),
    }


def per_layer(untraced: Sample, traced: Sample, spans: Path) -> dict:
    import tracing

    metrics = tracing.layer_metrics(tracing.summarize(spans))
    metrics["cli.rows"] = (traced.rows, "count")
    metrics["cli.bytes_out"] = (traced.bytes_out, "bytes")
    metrics["trace.run_s"] = (traced.run_s, "s")
    metrics["trace.overhead_s"] = (traced.run_s - untraced.run_s, "s")
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            entry: dict) -> tuple[list[Sample], dict]:
    _, info, _ = probe()  # warm-up: fills the bytecode cache
    print("env", json.dumps(environment(info), sort_keys=True))
    setups, refs = [], []

    def probes(count: int) -> None:
        for _ in range(count):
            setup_s, _, probe_refs = probe()
            setups.append(setup_s)
            refs.extend(probe_refs)

    probes(SETUP_PROBES // 2)
    if trace:
        spans = OUT_DIR / f"spans-{workload.name}.npz"
        samples = [run_sample(workload, seed, entry),
                   run_sample(workload, seed, entry, spans)]
    else:
        samples = []
        t0 = time.perf_counter()
        while True:
            t = time.perf_counter()
            samples.append(run_sample(workload, seed, entry))
            last = time.perf_counter() - t
            if time.perf_counter() - t0 + last > seconds:
                break
    probes(SETUP_PROBES - SETUP_PROBES // 2)
    for i, s in enumerate(samples):
        print(f"{workload.name} sample {i}: "
              + (f"FAILED ({s.failure})" if s.failure else
                 f"run_s {s.run_s:.4f} cpu_s {s.cpu_s:.4f} "
                 f"setup_s {s.setup_s:.4f} "
                 f"peak_rss_mb {s.peak_rss_mb:.2f}"))
    ok = [s for s in samples if s.failure is None]
    setups += [s.setup_s for s in samples]
    refs += [r for s in samples for r in s.refs]
    if not trace:
        metrics = end_to_end(ok, setups, refs)
    elif len(ok) == 2:
        metrics = per_layer(samples[0], samples[1], spans)
    else:
        metrics = {}
    failed = len(samples) - len(ok)
    print(f"{workload.name} failed_frac {failed / len(samples)} ({failed}/{len(samples)})")
    if not trace:
        for name, (value, unit) in raw_times(ok, refs).items():
            print(f"{workload.name} {name} {value} {unit}")
        tail = tail_percentile([s.run_s for s in ok])
        print(f"{workload.name} run_s tail: " + (
            f"p{tail[0]} {tail[1]:.4f} s" if tail else
            f"none ({len(ok)} samples; a percentile needs ten beyond it)"))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value} {unit}")
    return samples, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        expected = json.loads(EXPECTED.read_text())
        for name in names:
            samples, got = measure(WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace), expected[name])
            attempted += len(samples)
            failed += sum(s.failure is not None for s in samples)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in got.items()})
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
