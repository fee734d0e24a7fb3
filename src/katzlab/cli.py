"""Command-line front end.

Four subcommands:

* ``scatter``  -- per-pair distance / resistance / Katz table for one graph
  at one or more decay values, suitable for scatter plots.
* ``cutoff``   -- table of ranking cut-off roots over a range of path sizes.
* ``converge`` -- one Katz entry against its infinite-size limit over a
  growing size list.
* ``verify``   -- run the numerical property suites and report per-property
  pass/fail lines.

All CSV output is deterministic: fixed 17-significant-digit scientific
notation for reals, plain decimal integers, '\\n' line endings, header row
always present, rows in a documented order.  Identical invocations produce
byte-identical files.

Exit codes: 0 success, 1 property/verification failure, 2 usage or
validation error (including inadmissible decay values, inputs beyond
numeric range, see NUMERIC_RANGE_ERRORS, and an output file that cannot
be written).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections.abc import Iterable, Iterator

import numpy as np

from . import katz, ordering
from .dpoly import INV_SQRT5
from .graphs import (
    FAMILIES,
    GraphSpec,
    PowerIterationError,
    _pair_label_blocks,
    _span_distance,
    _span_resistance,
    require_admissible,
    resistance,  # not called here (scatter reads _span_resistance); kept as a name callers patch
)
from .linalg import SingularMatrixError
from .verify import run_suites

# Raised when an input lies beyond what the routines can compute.  Like
# validation errors they exit 2: exit 1 means a verification failure.
NUMERIC_RANGE_ERRORS = (
    ArithmeticError,
    SingularMatrixError,
    ordering.BracketError,
    katz.SeriesDivergenceError,
    PowerIterationError,
)

DEFAULT_SCATTER_ALPHAS = (0.2, 0.3, 0.46)
DEFAULT_CONVERGE_SIZES = (10, 20, 40, 80, 160, 320)

# Most rows per text block handed to _write_csv: bounds the block's labels,
# index and text whatever n is.  Of the sizes measured (1024 to 32768 rows),
# 2048 was the fastest: smaller blocks pay more per block, and from 4096 rows
# on the C heap is trimmed and faulted back in block after block.
SCATTER_BLOCK_ROWS = 2048


def _real(x: float) -> str:
    return f"{x:.16e}"


def _alpha_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty alpha list")
    return values


def _int_list(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty size list")
    return values


class _RealCells:
    """The object table of one alpha's scatter cells: fixed cells first, then a cell per distinct Katz value.

    Katz values are told apart by their bit pattern, so 0.0 and -0.0 (or
    two NaN payloads) are never merged and every cell is exactly its own
    _real with its line end.  The patterns seen so far are one sorted
    int64 key array, with the table index of each one's cell: O(F + R)
    memory for F fixed cells and R distinct values, whatever the number of
    values added.
    """

    def __init__(self, fixed: list[str]) -> None:
        self.table = np.array(fixed, dtype=object)
        self.size = self.table.size
        self.keys = np.empty(0, dtype=np.int64)
        self.numbers = np.empty(0, dtype=np.intp)

    def add(self, values: np.ndarray) -> np.ndarray:
        """Per value, the table index of its cell; the patterns not seen before are formatted once and appended.

        One sort and a != mask find the distinct patterns of values; only
        those not among the keys are formatted.  The table doubles when
        full, so that R cells are copied O(log R) times.
        """
        bits = values.view(np.int64)
        distinct = np.sort(bits)
        first = np.empty(distinct.size, dtype=bool)
        first[:1] = True
        np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
        new = distinct[first]
        if self.keys.size:
            at = np.searchsorted(self.keys, new)
            # a pattern above every key has at = keys.size, clipped to the largest key
            fresh = self.keys.take(at, mode="clip") != new
            new, at = new[fresh], at[fresh]
        if new.size:
            numbers = np.arange(self.size, self.size + new.size)
            # the first patterns are the keys as they are: np.insert costs some 20 us even into nothing
            merged = (np.insert(self.keys, at, new), np.insert(self.numbers, at, numbers)) if self.keys.size else (new, numbers)
            self.keys, self.numbers = merged
            if self.size + new.size > self.table.size:
                self.table = np.concatenate((self.table, np.empty(max(self.table.size, new.size), dtype=object)))
            # _real's format, written out: a call per value costs a few per cent of a small scatter
            self.table[self.size : self.size + new.size] = [f"{x:.16e}\n" for x in new.view(np.float64).tolist()]
            self.size += new.size
        return self.numbers.take(np.searchsorted(self.keys, bits))


def _csv_text(rows: list[list[str]]) -> str:
    return "".join([",".join(row) + "\n" for row in rows])


def _write_csv(path: str, header: list[str], blocks: Iterable[str]) -> None:
    """Write the header line, then each block of already-joined CSV lines."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _scatter_blocks(g: GraphSpec, alphas: list[float]) -> Iterator[str]:
    """The scatter rows at checked alphas, alpha by alpha in g.pairs() order, at most SCATTER_BLOCK_ROWS to a block.

    A row is four cells from the alpha's one object table (_RealCells):
    the "alpha,i," head, the "j," label, the "distance,resistance," cells
    of its span j - i and the Katz cell with its line end.  The Katz values
    come from O(n) rows per alpha with no n x n matrix.  A path evaluates
    each pair of a block once (katz._path_pairs on its d-row and powers),
    and the table formats each distinct value once per alpha and gives its
    index.  A cycle's value depends on a pair only through its arc, so its
    table holds one fixed Katz cell per arc length k = 1..n//2.  The labels
    are built block by block from the row offsets, and a block is one
    4-column gather and one join.  No array holds all P = n(n-1)/2 pairs:
    memory is O(n + block + R), with R the number of distinct Katz values
    at one alpha.
    """
    n = g.n
    spans = np.arange(1, n)
    distance, resist = _span_distance(g, spans), _span_resistance(g, spans)
    # table layout: heads (i = 1..n-1), labels (j = 2..n), spans (1..n-1), Katz cells
    fixed = [f"{v}," for v in range(2, n + 1)] + [f"{d},{_real(r)}," for d, r in zip(distance.tolist(), resist.tolist())]
    arc_cells = distance + (3 * (n - 1) - 1)  # a cycle's Katz cell per span, that of its arc
    for alpha in alphas:
        alpha_cell = _real(alpha)
        if g.is_path:
            d, powers = katz._path_rows([alpha], n)
            arcs = []
        else:
            arcs = [f"{x:.16e}\n" for x in katz._cycle_arcs([alpha], n)[0, 1:].tolist()]
        cells = _RealCells([f"{alpha_cell},{v}," for v in range(1, n)] + fixed + arcs)
        for i, j in _pair_label_blocks(n, SCATTER_BLOCK_ROWS):
            index = np.empty((i.size, 4), dtype=np.intp)
            np.subtract(i, 1, out=index[:, 0])
            np.add(j, n - 3, out=index[:, 1])
            span = j - i
            np.add(span, 2 * n - 3, out=index[:, 2])
            if g.is_path:
                index[:, 3] = cells.add(katz._path_pairs(d, powers, i, j)[0])
            else:
                np.take(arc_cells, span - 1, out=index[:, 3])
            yield "".join(cells.table[index].ravel().tolist())


def cmd_scatter(args: argparse.Namespace) -> int:
    g = GraphSpec(args.family, args.n)
    katz.require_matrix_size(g.n)
    alphas = katz.require_normal_denominator(g, sorted(args.alpha))
    _write_csv(args.out, ["alpha", "i", "j", "distance", "resistance", "katz"], _scatter_blocks(g, alphas))
    return 0


def cmd_cutoff(args: argparse.Namespace) -> int:
    if args.n_lo > args.n_hi:
        raise ValueError(f"empty size range: n_lo={args.n_lo} > n_hi={args.n_hi}")
    ordering._require_bracketed(args.n_lo, args.j)
    rows: list[list[str]] = []
    roots: list[float] = []
    nan = float("nan")
    for n in range(args.n_lo, args.n_hi + 1):
        try:
            result = ordering.cutoff_root(n, args.j)
        except ordering.BracketError:
            root, iterations, residual, status = nan, 0, nan, "bracket_failure"
        else:
            root, iterations, residual, status = result.root, result.iterations, result.residual, "ok"
            roots.append(root)
        rows.append(
            [str(n), str(args.j), _real(root), _real(root - INV_SQRT5), str(iterations), _real(residual), status]
        )
    _write_csv(
        args.out,
        ["n", "j", "root", "root_minus_inv_sqrt5", "iterations", "residual", "status"],
        [_csv_text(rows)],
    )
    monotone = all(a > b for a, b in zip(roots, roots[1:]))
    print(
        f"cutoff j={args.j} n={args.n_lo}..{args.n_hi}: {len(roots)}/{len(rows)} converged; "
        f"roots monotone decreasing: {'yes' if monotone and roots else 'no'}"
    )
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    sizes = args.n_list
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"n-list must be strictly increasing, got {','.join(map(str, sizes))}")
    if args.family == "path":
        if args.i is None or args.j is None or args.offset is not None:
            raise ValueError("path convergence takes --i and --j (not --offset)")
        if args.j > min(sizes):
            raise ValueError(f"vertex {args.j} does not exist in the smallest size n={min(sizes)}")
    else:
        if args.offset is None or args.i is not None or args.j is not None:
            raise ValueError("cycle convergence takes --offset (not --i/--j)")
        if 1 + args.offset > min(sizes):
            raise ValueError(f"offset {args.offset} does not fit in the smallest size n={min(sizes)}")
    graphs = [GraphSpec(args.family, n) for n in sizes]
    # each size is checked once (d_n and D_n fall as n grows: the largest is the first to leave the
    # float range), and the limits check the labels and the offset before any entry is computed
    for g in graphs[:-1]:
        require_admissible(args.alpha, g)
    katz.require_normal_denominator(graphs[-1], args.alpha)
    if args.family == "path":
        limit = katz.katz_limit_path(args.i, args.j, args.alpha)
        exact = [katz._path_entry(n, args.i, args.j, args.alpha) for n in sizes]
    else:
        limit = katz.katz_limit_cycle(args.offset, args.alpha)
        exact = [katz._cycle_entry(g.n, _span_distance(g, args.offset), args.alpha) for g in graphs]
    rows = [
        [str(n), _real(value), _real(limit), _real(abs(value - limit))]
        for n, value in zip(sizes, exact)
    ]
    rows.append(["inf", _real(limit), _real(limit), _real(0.0)])
    _write_csv(args.out, ["n", "katz_exact", "limit_value", "abs_gap"], [_csv_text(rows)])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    results = run_suites(args.level)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        margin = "-" if r.margin is None else f"{r.margin:.3e}"
        print(
            f"{status}  {r.name:<{width}}  checks={r.checks:>6d}  max_err={r.max_err:.3e}"
            f"  margin={margin:<9}  {r.seconds:6.3f}s"
        )
    elapsed = time.perf_counter() - started
    total = sum(r.checks for r in results)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed, {total} checks, {elapsed:.1f}s")
    if failed:
        first = failed[0]
        print(f"first failure: {first.name}: {first.failures[0]}", file=sys.stderr)
        print(f"reproduce with: katzlab verify --level {args.level}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="katzlab",
        description="Katz similarity, effective resistance, and pair-ranking tables on paths and cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scatter = sub.add_parser("scatter", help="per-pair metric table for scatter plots")
    scatter.add_argument("--family", choices=FAMILIES, required=True)
    scatter.add_argument("--n", type=int, required=True, help=f"number of vertices (at most {katz.MATRIX_MAX_N})")
    scatter.add_argument(
        "--alpha",
        type=_alpha_list,
        default=DEFAULT_SCATTER_ALPHAS,
        help="comma-separated decay values (default 0.2,0.3,0.46)",
    )
    scatter.add_argument("--out", required=True, help="output CSV path")

    cutoff = sub.add_parser("cutoff", help="ranking cut-off roots over a size range")
    cutoff.add_argument("--j", type=int, required=True, help="pair offset of the leading gap")
    cutoff.add_argument("--n-lo", type=int, required=True)
    cutoff.add_argument("--n-hi", type=int, required=True)
    cutoff.add_argument("--out", required=True, help="output CSV path")

    converge = sub.add_parser("converge", help="one Katz entry against its large-size limit")
    converge.add_argument("--family", choices=FAMILIES, required=True)
    converge.add_argument("--i", type=int, help="first vertex (path family)")
    converge.add_argument("--j", type=int, help="second vertex (path family)")
    converge.add_argument("--offset", type=int, help="arc offset from vertex 1 (cycle family)")
    converge.add_argument("--alpha", type=float, required=True)
    converge.add_argument(
        "--n-list",
        type=_int_list,
        default=DEFAULT_CONVERGE_SIZES,
        help="comma-separated strictly increasing sizes (default 10,20,40,80,160,320)",
    )
    converge.add_argument("--out", required=True, help="output CSV path")

    verify = sub.add_parser("verify", help="run the numerical property suites")
    verify.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process, built by the first one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line; may be called any number of times in one process.

    The parser is built once, on the first call, and never holds state
    between calls: its defaults are tuples, and the handler is looked up by
    the subcommand's name at each call, so a replaced cmd_* takes effect.
    """
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except NUMERIC_RANGE_ERRORS + (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
