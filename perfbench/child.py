"""One benchmark sample in a fresh interpreter.

Usage: child.py probe
       child.py run SPANS -- CLI-ARGS...   (SPANS is "-" for an untraced run)

Imports polysigma from this checkout's ``src/`` and prints one ``READY`` line
as soon as the package is ready, so the parent can time set-up. ``probe``
then times the reference mix once and prints it as one JSON line. ``run``
calls ``polysigma.cli.main`` once, optionally under the span tracer, with the
reference timed just before and just after, and prints one JSON line with the
call's exit code, wall and CPU time, the two reference times, the process's
peak RSS and the text ``main`` wrote to stdout.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import polysigma  # noqa: E402
from polysigma import cli, oracle  # noqa: E402


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


_REF_STACK = np.exp(1j * np.arange(16 * 2_000)).reshape(2_000, 4, 4)


def _reference_s() -> float:
    """Wall time of a fixed mix of interpreted Python and small batched
    complex matrix products, the two kinds of work polysigma does. On a
    shared host the machine's speed drifts by tens of percent over minutes,
    and this, timed throughout a run, tracks the drift. The arrays are small
    so that the reference adds little to the sample's peak RSS."""
    t0 = time.perf_counter()
    table = {}
    for i in range(600_000):
        table[i & 1023] = (i * i) % 7
    for _ in range(150):
        float(np.abs(_REF_STACK @ _REF_STACK - _REF_STACK).max())
    return time.perf_counter() - t0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """High-water RSS of this process image. On Linux, ru_maxrss also keeps
    the spawning process's high-water mark across exec, so VmHWM is read."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    print("READY", json.dumps({
        "polysigma_file": polysigma.__file__,
        "numpy": np.__version__,
        "blas": _blas(),
        "worker_count": oracle.worker_count(),
    }), flush=True)
    if argv[0] == "probe":
        print(json.dumps({"ref_s": [_reference_s()]}), flush=True)
        return 0
    spans, cli_args = argv[1], argv[3:]
    tracer = None
    if spans != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = io.StringIO()
    ref_before = _reference_s()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(cli_args)
    run_s, cpu_s = time.perf_counter() - t0, _cpu_s() - cpu0
    ref_after = _reference_s()
    if tracer is not None:
        tracer.save(Path(spans))
    print(json.dumps({
        "rc": rc,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "ref_s": [ref_before, ref_after],
        "peak_rss_mb": _peak_rss_mb(),
        "stdout": out.getvalue(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
