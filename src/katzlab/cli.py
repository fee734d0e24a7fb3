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
    _pair_labels,
    _span_distance,
    _span_resistance,
    graph_distance,
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

# Rows per text block handed to _write_csv: bounds the block's text and
# index arrays whatever n is.
SCATTER_BLOCK_ROWS = 32768


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


def _real_table(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The _real cell of each distinct float in values, and per value the index of its cell.

    Values are grouped by their bit pattern, so 0.0 and -0.0 (or two NaN
    payloads) are never merged and every cell is exactly its own _real.
    """
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return [_real(x) for x in keys.view(np.float64).tolist()], inverse


def _csv_text(rows: list[list[str]]) -> str:
    return "".join([",".join(row) + "\n" for row in rows])


def _write_csv(path: str, header: list[str], blocks: Iterable[str]) -> None:
    """Write the header line, then each block of already-joined CSV lines."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _scatter_blocks(g: GraphSpec, alphas: list[float]) -> Iterator[str]:
    """The scatter rows at checked alphas, alpha by alpha in g.pairs() order, at most SCATTER_BLOCK_ROWS to a block.

    A row is four cells from small per-graph tables: the "alpha,i," head,
    the "j," label, the "distance,resistance," cells of its span j - i and
    the Katz cell with its line end, read by katz._pair_entries with no
    n x n matrix.  A path has one Katz cell per distinct value of its pairs;
    a cycle's Katz value depends on a pair only through its arc, the
    distance of its span, so it reads the pairs (1, 1 + k), k = 1..n//2,
    one cell per arc.  A block is one object-array gather and one join.
    """
    n = g.n
    i, j = _pair_labels(n)
    ends = np.arange(2, n + 1)  # the pairs (1, 1 + s) stand for every pair of span s = 1..n-1
    distance, resist = _span_distance(g, ends - 1), _span_resistance(g, ends - 1)
    # table layout: heads (i = 1..n-1), labels (j = 2..n), spans (1..n-1), Katz cells
    labels = [f"{v}," for v in range(2, n + 1)]
    spans = [f"{d},{_real(r)}," for d, r in zip(distance.tolist(), resist.tolist())]
    for alpha in alphas:
        if g.is_path:
            katz_cells, katz_index = _real_table(katz._pair_entries(g, [alpha], i, j)[0])
        else:
            arcs = katz._pair_entries(g, [alpha], np.ones(n // 2, dtype=np.int64), ends[: n // 2])[0]
            katz_cells = [_real(x) for x in arcs.tolist()]
        alpha_cell = _real(alpha)
        heads = [f"{alpha_cell},{v}," for v in range(1, n)]
        table = np.array(heads + labels + spans + [cell + "\n" for cell in katz_cells], dtype=object)
        del katz_cells
        for lo in range(0, len(i), SCATTER_BLOCK_ROWS):
            block = slice(lo, lo + SCATTER_BLOCK_ROWS)
            ib, jb = i[block], j[block]
            index = np.empty((len(ib), 4), dtype=np.intp)
            index[:, 0] = ib - 1
            index[:, 1] = jb + (n - 3)
            index[:, 2] = jb - ib + (2 * n - 3)
            index[:, 3] = katz_index[block] if g.is_path else distance[jb - ib - 1] - 1
            index[:, 3] += 3 * (n - 1)
            yield "".join(table[index].ravel().tolist())


def cmd_scatter(args: argparse.Namespace) -> int:
    g = GraphSpec(args.family, args.n)
    katz.require_matrix_size(g.n)
    alphas = [require_admissible(alpha, g) for alpha in sorted(args.alpha)]
    _write_csv(args.out, ["alpha", "i", "j", "distance", "resistance", "katz"], _scatter_blocks(g, alphas))
    return 0


def cmd_cutoff(args: argparse.Namespace) -> int:
    if args.j < 1:
        raise ValueError(f"j must be >= 1, got {args.j}")
    if args.n_lo > args.n_hi:
        raise ValueError(f"empty size range: n_lo={args.n_lo} > n_hi={args.n_hi}")
    if args.n_lo - args.j < 5:
        raise ValueError(
            f"n - j must be >= 5 for a bracketed root; got n_lo={args.n_lo}, j={args.j}"
        )
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
        if not 1 <= args.i <= args.j:
            raise ValueError(f"need 1 <= i <= j, got i={args.i}, j={args.j}")
        if args.j > min(sizes):
            raise ValueError(f"vertex {args.j} does not exist in the smallest size n={min(sizes)}")
    else:
        if args.offset is None or args.i is not None or args.j is not None:
            raise ValueError("cycle convergence takes --offset (not --i/--j)")
        if args.offset < 1:
            raise ValueError(f"offset must be >= 1, got {args.offset}")
        if 1 + args.offset > min(sizes):
            raise ValueError(f"offset {args.offset} does not fit in the smallest size n={min(sizes)}")
    graphs = [GraphSpec(args.family, n) for n in sizes]
    for g in graphs:
        require_admissible(args.alpha, g)
    # every size is checked: the entries come from the unchecked kernels
    if args.family == "path":
        limit = katz.katz_limit_path(args.i, args.j, args.alpha)
        exact = [katz._path_entry(n, args.i, args.j, args.alpha) for n in sizes]
    else:
        limit = katz.katz_limit_cycle(args.offset, args.alpha)
        exact = [katz._cycle_entry(g.n, graph_distance(g, 1, 1 + args.offset), args.alpha) for g in graphs]
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
