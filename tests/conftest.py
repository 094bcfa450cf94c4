"""Shared fixtures and independent rule transcriptions used as test oracles.

The formal-sum evaluators below are written directly from the closed-form
multiplication rules (delta terms, permutation-symbol term with its
quarter-turn phase) and are kept independent of the package's sigma-word
kernel, so each side checks the other.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from polysigma import levi_civita, root_of_unity, sigma

TOL = 1e-12

#: pass/fail lines registered by the acceptance tests; echoed in the
#: terminal summary so they are visible even under output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def phase(r: int, q: int) -> complex:
    return root_of_unity(r % q, q)


def sigma_pair_dense(k: int, l: int) -> np.ndarray:
    """delta_kl*sigma_0 + i*eps_klm*sigma_m as a literal 2x2 sum (k,l in 1..3)."""
    out = np.zeros((2, 2), dtype=complex)
    if k == l:
        out += sigma(0)
    for m in (1, 2, 3):
        eps = levi_civita(k, l, m)
        if eps:
            out += 1j * eps * sigma(m)
    return out


def sigma_triple_dense(k: int, l: int, m: int) -> np.ndarray:
    """delta_kl*sigma_m - delta_km*sigma_l + delta_lm*sigma_k + i*eps_klm*sigma_0
    as a literal 2x2 sum (k,l,m in 1..3)."""
    out = np.zeros((2, 2), dtype=complex)
    if k == l:
        out += sigma(m)
    if k == m:
        out -= sigma(l)
    if l == m:
        out += sigma(k)
    eps = levi_civita(k, l, m)
    if eps:
        out += 1j * eps * sigma(0)
    return out


def phased_sigma_word_dense(js, rs, q: int) -> np.ndarray:
    """Literal product of phase(r)*sigma(j) factors, 2x2."""
    out = np.eye(2, dtype=complex)
    for j, r in zip(js, rs):
        out = out @ (phase(r, q) * sigma(j))
    return out


def assert_close(a, b, tol=TOL):
    dev = float(np.abs(np.asarray(a) - np.asarray(b)).max())
    assert dev <= tol, f"max deviation {dev} > {tol}"


def traced_peak(fn):
    """``fn()`` and the peak bytes allocated while it ran above those held
    when it started.  numpy reports its array buffers to tracemalloc, so the
    peak counts every array ``fn`` makes, temporaries included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
