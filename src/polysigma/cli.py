"""Batch command-line front end: construction, enumeration, verification, export.

Exit codes are a stable contract for CI: 0 = pass, 1 = verification failure,
2 = usage or input error (including an exceeded enumeration budget).
Identical seed and configuration produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import oracle, phases
from .errors import BudgetExceededError, DomainError
from .matrices import DEFAULT_TOL, BlockCyclicMatrix, sigma
from .phases import Q12

_DEF_SEED = 42


# ---------------------------------------------------------------------------
# cayley


#: table rows per kernel call; bounds the working memory of an export.
_CAYLEY_CHUNK = 1 << 12


def _result_fields(lab) -> list[str]:
    """The result_j, result_k and result_r columns of one label."""
    if isinstance(lab, phases.ZeroLabel):
        return ["Z", "", ""]
    if isinstance(lab, phases.HetLabel):
        return [".".join(str(j) for j in lab.js), "", ".".join(str(r) for r in lab.rs)]
    if isinstance(lab, phases.ElementaryLabel):
        return [str(lab.j), str(lab.k), str(lab.r)]
    return [str(lab.j), "", str(lab.r)]


def _cayley_chunks(fam):
    """Yield the table in canonical enumeration order, in blocks of
    max(1, _CAYLEY_CHUNK // order) prefixes: a block's (P, t-1) label
    indices of the leading factors of its t-factor rows, and the (P, order)
    result label indices of each prefix followed by every label, from one
    every_last kernel call."""
    prefixes = fam.order ** (fam.n - 1)
    for start, stop in phases._chunk_ranges(prefixes, max(1, _CAYLEY_CHUNK // fam.order)):
        pref = phases._build_tuples(fam.order, fam.n - 1, start, stop)
        yield pref, fam.index_mult(pref, every_last=True)


def _write_csv(fh, fam, tokens, fields) -> None:
    """The table as CSV bytes, one block of prefixes at a time.  No token or
    field needs CSV quoting, so a row is its cells joined by "," and ended by
    "\r\n", as csv.writer writes it: a prefix's head h, a last label's head
    and the result's tail.  A prefix's rows are h.join(x), where x is an
    empty cell followed by each last label's head and tail; x is fixed by
    the prefix's result row alone.

    A prefix of two or more factors has at most ``order`` distinct result
    rows, repeated across the table, so x is built once per distinct row and
    kept, up to ``order`` rows, with cells shared between rows: at most
    order**2 cells.  One-factor prefixes meet each row once and keep none."""
    order = fam.order
    heads = [tok.encode() + b"," for tok in tokens]
    tails = [",".join(f).encode() + b"\r\n" for f in fields]
    keep = fam.n > 2
    memo = {}
    cells = [[None] * order for _ in range(order)] if keep else None
    fh.write(",".join([f"op{i + 1}" for i in range(fam.n)]
                      + ["result_j", "result_k", "result_r"]).encode() + b"\r\n")
    block = bytearray()
    for pref, res in _cayley_chunks(fam):
        for ops, row in zip(pref.tolist(), res):
            key = row.tobytes()
            x = memo.get(key)
            if x is None and not keep:
                x = [b""] + [hd + tails[r] for hd, r in zip(heads, row.tolist())]
            elif x is None:
                x = [b""]
                for hd, col, r in zip(heads, cells, row.tolist()):
                    if col[r] is None:
                        col[r] = hd + tails[r]
                    x.append(col[r])
                if len(memo) < order:
                    memo[key] = x
            block += b"".join([heads[i] for i in ops]).join(x)
        fh.write(block)
        block.clear()


def _write_dense_json(fh, fam, tokens, fields, args) -> None:
    """The table with each row's literal dense product, one entry at a time,
    as the bytes that json.dump(payload, sort_keys=True, indent=2) and a
    newline write: "entries" is the first of the payload's sorted keys, and
    an entry sits two levels deep, four spaces in."""
    encode = json.JSONEncoder(sort_keys=True, indent=2).encode
    fh.write('{\n  "entries": [')
    sep = "\n"
    for pref, res in _cayley_chunks(fam):
        for ops, row in zip(pref.tolist(), res.tolist()):
            # the left-to-right products, their prefix shared by the run
            head = fam.dense_stack[ops[0]]
            for i in ops[1:]:
                head = head @ fam.dense_stack[i]
            prods = np.matmul(head, fam.dense_stack)
            for last, r in enumerate(row):
                entry = encode({
                    "operands": [tokens[i] for i in ops] + [tokens[last]],
                    "result": fields[r],
                    "dense": [[[z.real, z.imag] for z in line]
                              for line in prods[last].tolist()],
                })
                fh.write(sep + "    " + entry.replace("\n", "\n    "))
                sep = ",\n"
    rest = encode({"family": args.family, "n": args.n, "q": args.q})
    fh.write("\n  ]," + rest[1:] + "\n")


def cmd_cayley(args) -> int:
    n, order = phases.family_size(args.family, args.n, args.q)  # refuses n < 2
    rows = order ** n
    if rows > args.budget:
        raise BudgetExceededError(f"{oracle.power_text(order, n)} table rows exceed the "
                                  f"budget of {args.budget}; raise --budget to proceed")
    as_csv = args.format == "csv"
    # opened before any work, so an unwritable path is refused at once
    with open(args.out, "wb" if as_csv else "w") as fh:
        fam = oracle.family_context(args.family, args.n, args.q)
        labels = [fam.label(i) for i in range(fam.order)]
        tokens = [lab.token() for lab in labels]
        fields = [_result_fields(lab) for lab in labels]
        if as_csv:
            _write_csv(fh, fam, tokens, fields)
        else:
            _write_dense_json(fh, fam, tokens, fields, args)
    print(f"wrote {rows} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    # each output path is opened to append before any sweep, so an
    # unwritable one is refused at once; an existing file keeps its bytes,
    # and one the check made is removed again
    for path in filter(None, (args.out, args.junit)):
        made = not os.path.exists(path)
        open(path, "a").close()
        if made:
            os.remove(path)
    kwargs = dict(seed=args.seed, tol=args.tol, mode=args.mode)
    # --mode exhaustive bounds every exhaustive sweep by --budget; auto keeps
    # the builders' associativity budgets
    assoc = dict(assoc_budget=args.budget) if args.mode == "exhaustive" else {}
    if args.family == "pauli":
        report = phases.build_pauli_group(args.q, closure_budget=args.budget, **assoc, **kwargs)
    elif args.family == "elementary":
        report = phases.build_elementary_semigroup(
            args.n, args.q, closure_budget=args.budget, **kwargs)
    elif args.family == "full":
        report = phases.build_full_group(args.n, args.q, closure_budget=args.budget,
                                         **assoc, **kwargs)
    else:
        report = phases.build_het_group(args.n, args.q, cap=args.budget, **kwargs)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.junit:
        summary = oracle.SweepSummary(
            family=report.family, n=report.n, q=report.q,
            tuple_len=report.n,
            kind="structure", total=report.closure_checked,
            checked=report.closure_checked, passed=report.passed,
            max_abs_deviation=report.closure_max_deviation,
            witness=None, exhaustive=report.closure_exhaustive,
            tolerance=report.tolerance, seed=report.seed,
        )
        with open(args.junit, "w") as fh:
            fh.write(oracle.summaries_to_junit([summary]))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# param-mul


def _param_mul_one(elems: list[su2.PolyadicSU2Element], n: int):
    """The closed-form product of one tuple, as an element, and its
    deviation from the literal product of the operands' dense forms."""
    from . import su2

    if n == 2:
        operands = [e.params[0] for e in elems]
        result = su2.binary_param_mul(*operands)
        out = su2.PolyadicSU2Element(2, (result,))
    else:  # n == 3, the only other --n
        operands = elems
        result = out = su2.PolyadicSU2Element(3, su2.ternary_param_mul(
            *(e.params for e in elems)))
    dense = functools.reduce(np.matmul, [o.dense() for o in operands])
    return out, float(np.abs(dense - result.dense()).max())


def cmd_param_mul(args) -> int:
    from . import su2

    oracle._check_tolerance(args.tol)
    n = args.n
    if args.random is not None:
        rng = np.random.default_rng(args.seed)
        tuples = [[su2.PolyadicSU2Element.random(rng, n) for _ in range(n)]
                  for _ in range(args.random)]
    else:
        data = _read_json(args.infile)
        if not isinstance(data, dict):
            raise DomainError(f"input must be a JSON object, got {type(data).__name__}")
        if not su2.is_json_int(data.get("arity")) or data["arity"] != n:
            raise DomainError(f"input arity {data.get('arity')} != --n {n}")
        raw = data.get("tuples")
        if not (isinstance(raw, list)
                and all(isinstance(tup, list) and all(isinstance(e, dict) for e in tup)
                        for tup in raw)):
            raise DomainError("tuples must be a list of lists of element objects")
        tuples = [[su2.PolyadicSU2Element.from_dict(e) for e in tup] for tup in raw]
        for tup in tuples:
            if len(tup) != n or any(e.arity != n for e in tup):
                raise DomainError(f"each tuple must list {n} elements of arity {n}")
    if not tuples:  # nothing checked would pass vacuously
        raise DomainError("at least one tuple is needed, got none")
    results = []
    max_dev = 0.0
    for tup in tuples:
        out, dev = _param_mul_one(tup, n)
        max_dev = max(max_dev, dev)
        results.append({"element": out.to_dict(), "oracle_deviation": dev})
    payload = {
        "arity": n,
        "count": len(results),
        "max_deviation": max_dev,
        "results": results,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if max_dev <= args.tol else 1


# ---------------------------------------------------------------------------
# trace


def _read_json(path: str):
    """The JSON value in the file at ``path``.  A file that is not UTF-8 or
    not JSON, or one nested too deeply for the parser, is malformed input."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"malformed input ({exc})") from None


def _relaxed_element(arity: int, coeffs) -> BlockCyclicMatrix:
    """Cyclic block matrix of ``su2.parse_element``'s arity and block
    coefficients, without the unit-norm check, so identity-coefficient
    elements are accepted."""
    return BlockCyclicMatrix(arity, tuple(
        x0 * sigma(0) + 1j * (x1 * sigma(1) + x2 * sigma(2) + x3 * sigma(3))
        for x0, x1, x2, x3 in coeffs))


def cmd_trace(args) -> int:
    from . import su2

    mat = _relaxed_element(*su2.parse_element(_read_json(args.infile)))
    with np.errstate(over="ignore", invalid="ignore"):
        # the ordinary trace, read from the blocks: the dense form's diagonal
        # is the one block's at arity 2, and zero beyond it, where every
        # block sits off the diagonal
        ordinary = complex(np.trace(mat.blocks[0])) if mat.arity == 2 else 0j
        poly = su2.polyadic_trace(mat)
    # JSON has no infinity or NaN, so a trace that overflows is refused
    if not all(map(math.isfinite, (ordinary.real, ordinary.imag, poly.real, poly.imag))):
        raise DomainError(f"the trace is not finite (ordinary {ordinary}, polyadic {poly})")
    payload = {
        "arity": mat.arity,
        "ordinary_trace": [ordinary.real, ordinary.imag],
        "polyadic_trace": [poly.real, poly.imag],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    print(f"ordinary trace:  {ordinary.real:+.12g}{ordinary.imag:+.12g}j")
    print(f"polyadic trace:  {poly.real:+.12g}{poly.imag:+.12g}j")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# rules


def cmd_rules(args) -> int:
    from . import sigma_algebra

    count = sigma_algebra.write_rule_csv(args.out, args.kind)
    print(f"wrote {count} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _nonnegative(what: str):
    """An argparse type for an integer >= 0, called ``what`` in its error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be >= 0, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysigma",
        description="Cyclic-shift Sigma matrix algebra: Cayley tables, "
                    "structure verification, parameter products, traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=3, help="arity (default 3)")
        p.add_argument("--q", type=int, default=4, choices=Q12,
                       help="phase modulus (default 4)")

    p = sub.add_parser("cayley", help="export a complete multiplication table")
    p.add_argument("--family", required=True,
                   choices=("pauli", "elementary", "full", "het"))
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "dense-json"), default="csv")
    p.add_argument("--budget", type=_nonnegative("a budget"), default=1_000_000,
                   help="maximum table rows (default 1e6)")
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("verify", help="verify closure/associativity/querelements")
    p.add_argument("--family", required=True,
                   choices=("pauli", "elementary", "full", "het"))
    common(p)
    p.add_argument("--mode", choices=("auto", "exhaustive", "sample"), default="auto")
    p.add_argument("--seed", type=_nonnegative("a seed"), default=_DEF_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--budget", type=_nonnegative("a budget"), default=oracle.DEFAULT_BUDGET,
                   help="product budget for exhaustive sweeps")
    p.add_argument("--out", help="write the structure report JSON here")
    p.add_argument("--junit", help="also write a JUnit XML summary here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("param-mul", help="closed-form parameter products with "
                                         "oracle deviations")
    p.add_argument("--n", type=int, choices=(2, 3), default=3)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", help="JSON file of element tuples")
    src.add_argument("--random", type=_nonnegative("a tuple count"),
                     help="generate this many random tuples")
    p.add_argument("--seed", type=_nonnegative("a seed"), default=_DEF_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", help="write results JSON here (default stdout)")
    p.set_defaults(func=cmd_param_mul)

    p = sub.add_parser("trace", help="ordinary and polyadic trace of an element")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("rules", help="dump the ternary Sigma multiplication rules")
    p.add_argument("--kind", choices=("elementary", "full"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rules)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f"cannot open {exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
