"""The four seeded workloads and the independent checks of their outputs.

Each workload is a fixed list of ops built from ``--seed``.  An op is one
call into katzlab (the public API or ``cli.main``); its ``check`` compares
the output against a route that does not go through the closed forms
(dense LAPACK solves, katzlab's dense oracles, exact rationals, the
infinite-size limits), and runs outside the timed region.

Every seed must ask for nearly the same amount of work, or the per-seed
medians would not be comparable.  ``scatter`` and ``ranking`` cost grows as
n^2 and n^4 and is carried by a few large graphs, so their sizes sit on a
fixed log-spaced grid with a small seeded jitter.  The sizes of the ops
that set a metric are pinned: the median op (op_p50_ms), the op at the tail
(op_tail_ms) and the largest (peak_rss_mb); a size moved by the jitter
would move the metric with the seed, by up to a fifth at n^4.  The seed
also picks ranking's decay values and the scatter rows that are checked.
``pointwise`` has hundreds of ops, and draws its sizes stratified: one draw
per stratum of the range.  Its point entries stop where d_n leaves the
float64 range; the failing entries beyond it form a separate probe, run
once and listed, not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from katzlab import cli, katz, ordering, verify
from katzlab.dpoly import INV_SQRT5
from katzlab.graphs import GraphSpec, resistance_oracle

TOL = 1e-9  # mixed relative/absolute error allowed against an independent route
POINT_ALPHAS = (0.1, 0.3, 0.45, 0.499)
POINT_MAX_N = 3000
PROBE_SIZES = (1200, 2200, 3000)  # beyond the float64 range at alpha 0.45 or 0.499
DENSE_MAX_N = 512  # beyond this, point entries are checked against their limits
SCATTER_SAMPLE_ROWS = 4


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    fingerprint: Callable[[object], str]
    out_path: Optional[str] = None  # the CSV a CLI op writes


@dataclass
class CliOutput:
    code: int
    path: str


def mixed_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def log_grid(rng: random.Random, lo: int, hi: int, count: int, jitter: int, pinned: tuple[int, ...]) -> list[int]:
    """count log-spaced sizes from lo to hi; all but the pinned ones move by up to +-jitter."""
    grid = [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]
    return [n if k in pinned else n + rng.randint(-jitter, jitter) for k, n in enumerate(grid)]


def stratified(
    rng: random.Random, lo: float, hi: float, count: int, log: bool = False, width: float = 1.0
) -> list[int]:
    """One integer draw from each of ``count`` equal strata of [lo, hi).

    Each draw falls in the middle ``width`` of its stratum.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for k in range(count):
        x = a + (k + 0.5 + width * (rng.random() - 0.5)) * (b - a) / count
        out.append(int(math.exp(x)) if log else int(x))
    return out


# -- running ops ---------------------------------------------------------


def cli_op(label: str, argv: list[str], check) -> Op:
    out_path = argv[argv.index("--out") + 1]

    def run() -> CliOutput:
        with contextlib.redirect_stdout(io.StringIO()):  # keep the benchmark's stdout clean
            code = cli.main(argv)
        return CliOutput(code, out_path)

    def checked(out: CliOutput) -> Optional[str]:
        if out.code != 0:
            return f"exit code {out.code}"
        return check(out.path)

    return Op(label, run, checked, lambda out: f"{out.code}:{file_sha256(out.path)}", out_path)


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh]


# -- independent routes --------------------------------------------------


def system_matrix(family: str, n: int, alpha: float) -> np.ndarray:
    """I - alpha A for the path or cycle, built here rather than by katzlab."""
    m = np.eye(n)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = -alpha
    m[idx + 1, idx] = -alpha
    if family == "cycle":
        m[0, n - 1] = m[n - 1, 0] = -alpha
    return m


class Oracles:
    """Independent reference values, cached per graph and decay value."""

    def __init__(self):
        self._columns: dict = {}
        self._katz_inverse: dict = {}
        self._resistances: dict = {}

    def dense_entry(self, family: str, n: int, i: int, j: int, alpha: float) -> float:
        """Katz (i, j) from a LAPACK solve of (I - alpha A) x = e_j."""
        key = (family, n, j, alpha)
        if key not in self._columns:
            rhs = np.zeros(n)
            rhs[j - 1] = 1.0
            self._columns[key] = np.linalg.solve(system_matrix(family, n, alpha), rhs)
        return float(self._columns[key][i - 1]) - (1.0 if i == j else 0.0)

    def katz_inverse(self, g: GraphSpec, alpha: float) -> np.ndarray:
        key = (g, alpha)
        if key not in self._katz_inverse:
            self._katz_inverse[key] = katz.katz_oracle_inverse(g, alpha)
        return self._katz_inverse[key]

    def resistances(self, g: GraphSpec) -> np.ndarray:
        """Resistance of every pair i < j (row-major) from the Laplacian pseudoinverse."""
        if g not in self._resistances:
            a = -system_matrix(g.family, g.n, 1.0) + np.eye(g.n)
            lap = np.diag(a.sum(axis=1)) - a
            pinv = np.linalg.inv(lap + 1.0 / g.n) - 1.0 / g.n
            iu, ju = np.triu_indices(g.n, 1)
            self._resistances[g] = pinv[iu, iu] + pinv[ju, ju] - 2.0 * pinv[iu, ju]
        return self._resistances[g]


def hop_distances(g: GraphSpec) -> np.ndarray:
    iu, ju = np.triu_indices(g.n, 1)
    span = ju - iu
    return (span if g.is_path else np.minimum(span, g.n - span)).astype(float)


def limit_gap_bound(n: int, j: int, alpha: float) -> float:
    """Bound on |entry(n) - limit| relative to the limit, for vertices <= j.

    The trailing ratio d_{n-j}/d_n converges like rho^(n-j) with rho the
    ratio of the recursion's characteristic roots; the cycle's long-arc
    term decays like (alpha c)^(n - 2j).
    """
    s = math.sqrt(1.0 - 4.0 * alpha * alpha)
    rho = (1.0 - s) / (1.0 + s)
    alpha_c = 2.0 * alpha / (1.0 + s)
    return 4.0 * max(rho, alpha_c) ** (n - 2 * j)


def exact_p_tilde(n: int, j: int, x: float) -> Fraction:
    """p_tilde(n, j, x) in exact rationals with a recursion written here."""
    a = Fraction(x)
    a2 = a * a
    d = [Fraction(1), Fraction(1)]
    for _ in range(2, n - j):
        d.append(d[-1] - a2 * d[-2])
    m = (n - j + 1) // 2
    return d[n - j - 1] - a * d[m - 1] * d[n - m - j - 1]


def check_cutoff(n: int, j: int, root: float, iterations: int, residual: float) -> Optional[str]:
    if not INV_SQRT5 < root < 0.5:
        return f"root {root!r} outside (1/sqrt5, 1/2)"
    if not 0 < iterations <= ordering.BISECTION_ITERATION_CAP:
        return f"iterations {iterations}"
    if not residual <= 1e-10:
        return f"residual {residual:.3e}"
    delta = min(1e-13, (root - INV_SQRT5) / 4.0)
    if not exact_p_tilde(n, j, root - delta) > 0 > exact_p_tilde(n, j, root + delta):
        return f"no exact sign change of p_tilde around root {root!r}"
    return None


# -- scatter -------------------------------------------------------------


def pair_at(n: int, index: int) -> tuple[int, int]:
    """The index-th pair (i < j) of g.pairs() order."""
    i = 1
    while index >= n - i:
        index -= n - i
        i += 1
    return i, i + 1 + index


def build_scatter(seed: int, workdir: str, oracles: Oracles) -> list[Op]:
    rng = random.Random(f"scatter:{seed}")
    alphas = sorted(cli.DEFAULT_SCATTER_ALPHAS)
    ops = []
    # paths on the four smaller sizes, cycles on the five larger: a cycle
    # costs about 1.5x a path of equal n, and alternating families would
    # leave neighbouring ops near-tied in cost, so that which op sits at the
    # median or the tail would flip between runs
    # pinned: the smallest, the median op (k=4), the tail op (k=7) and the largest
    for k, n in enumerate(log_grid(rng, 40, 250, 9, jitter=2, pinned=(0, 4, 7, 8))):
        family = "path" if k < 4 else "cycle"
        g = GraphSpec(family, n)
        pairs = n * (n - 1) // 2
        sample = sorted(rng.sample(range(len(alphas) * pairs), SCATTER_SAMPLE_ROWS))

        def check(path, g=g, pairs=pairs, sample=sample):
            # streamed, so that the check does not raise the run's peak memory
            rows = dict.fromkeys(sample)
            count = 0
            with open(path) as fh:
                header = fh.readline().rstrip("\n").split(",")
                if header != ["alpha", "i", "j", "distance", "resistance", "katz"]:
                    return f"header {header}"
                for count, line in enumerate(fh, 1):
                    if count - 1 in rows:
                        rows[count - 1] = line.rstrip("\n").split(",")
            if count != len(alphas) * pairs:
                return f"{count} rows, expected {len(alphas) * pairs}"
            distances = hop_distances(g)
            for r in sample:
                alpha = alphas[r // pairs]
                i, j = pair_at(g.n, r % pairs)
                a_s, i_s, j_s, dist_s, res_s, katz_s = rows[r]
                if (float(a_s), int(i_s), int(j_s)) != (alpha, i, j):
                    return f"row {r} is {rows[r][:3]}, expected ({alpha}, {i}, {j})"
                if int(dist_s) != distances[r % pairs]:
                    return f"row {r}: distance {dist_s}"
                if abs(float(res_s) - resistance_oracle(g, i, j)) > TOL:
                    return f"row {r}: resistance {res_s} vs oracle {resistance_oracle(g, i, j)!r}"
                expected = float(oracles.katz_inverse(g, alpha)[i - 1, j - 1])
                if mixed_err(float(katz_s), expected) > TOL:
                    return f"row {r}: katz {katz_s} vs oracle {expected!r}"
            return None

        argv = ["scatter", "--family", family, "--n", str(n), "--out", os.path.join(workdir, f"scatter-{k}.csv")]
        ops.append(cli_op(f"scatter family={family} n={n}", argv, check))
    return ops


# -- ranking -------------------------------------------------------------


def first_violation(keys_a: np.ndarray, keys_b: np.ndarray, tol: float, block: int = 256):
    """First (x, y) in row-major order with a strictly preferring x and b strictly reversing it."""
    for lo in range(0, len(keys_a), block):
        ka, kb = keys_a[lo : lo + block, None], keys_b[lo : lo + block, None]
        mask = (ka < keys_a[None, :] - tol) & (kb > keys_b[None, :] + tol)
        if mask.any():
            x, y = np.argwhere(mask)[0]
            return lo + int(x), int(y)
    return None


def check_agreement(report, g: GraphSpec, alpha: float, oracles: Oracles) -> Optional[str]:
    """Flags and witness against Katz scores from katzlab's dense inverse oracle.

    Comparisons within GUARD of the tie tolerance may go either way: a flag
    must agree with every inversion found at tol + GUARD, and the witness
    must be an inversion at tol - GUARD with none earlier at tol + GUARD.
    """
    guard = 1e-12
    tol = ordering.TIE_TOL
    iu, ju = np.triu_indices(g.n, 1)
    scores = {
        "katz": oracles.katz_inverse(g, alpha)[iu, ju],
        "resistance": oracles.resistances(g),
        "distance": hop_distances(g),
    }
    keys = {m: (-s if m == "katz" else s) for m, s in scores.items()}
    flags = {
        ("katz", "resistance"): report.katz_vs_resistance,
        ("katz", "distance"): report.katz_vs_distance,
        ("resistance", "distance"): report.resistance_vs_distance,
    }
    witness_pair = next((mp for mp, agree in flags.items() if not agree), None)
    for (a, b), agree in flags.items():
        strict = first_violation(keys[a], keys[b], tol + guard)
        if agree and strict is not None:
            return f"{a} vs {b} reported agreeing, oracle inversion at pairs {strict}"
        if not agree and first_violation(keys[a], keys[b], tol - guard) is None:
            return f"{a} vs {b} reported disagreeing, oracle finds no inversion"
        if (a, b) == witness_pair:
            w = report.witness
            if w is None or (w.metric_a, w.metric_b) != (a, b):
                return f"witness {w} is not for {a} vs {b}"
            pos = {(int(i) + 1, int(j) + 1): k for k, (i, j) in enumerate(zip(iu, ju))}
            x, y = pos[(w.pair_a.i, w.pair_a.j)], pos[(w.pair_b.i, w.pair_b.j)]
            if strict is not None and strict < (x, y):
                return f"witness at {(x, y)} but oracle inversion earlier at {strict}"
            ka, kb = keys[a], keys[b]
            if not (ka[x] < ka[y] - (tol - guard) and kb[x] > kb[y] + (tol - guard)):
                return f"witness {w} is not an inversion under the oracle"
            for got, m in ((w.scores_a, a), (w.scores_b, b)):
                want = (scores[m][x], scores[m][y])
                if max(mixed_err(got[0], want[0]), mixed_err(got[1], want[1])) > TOL:
                    return f"witness scores {got} vs oracle {want}"
    if witness_pair is None and report.witness is not None:
        return "witness reported although all metrics agree"
    return None


def expected_cycle_classes_match(g: GraphSpec, alpha: float, oracles: Oracles) -> Optional[bool]:
    """class_structures_match for a cycle, recomputed independently.

    Katz on a cycle depends only on arc length; its exact rational values
    decide whether the arc classes stay apart.  Resistance classes come from
    the Laplacian pseudoinverse.  None when an arc gap is too close to the
    tie tolerance to call.
    """
    tol = ordering.TIE_TOL
    arcs = list(range(1, g.n // 2 + 1))
    values = [katz.katz_cycle_exact(g.n, 1, 1 + k, alpha) for k in arcs]
    for hi, lo in zip(values, values[1:]):
        gap = (hi - lo) / hi
        if abs(gap) <= 10 * tol:
            return None
        if gap < 0:
            return False
    res = oracles.resistances(g)
    dist = hop_distances(g)
    order = np.lexsort((dist, res))
    classes, last = [], None
    for ix in order:
        if last is None or abs(res[ix] - last) > tol * max(abs(res[ix]), abs(last)):
            classes.append(set())
        classes[-1].add(int(dist[ix]))
        last = res[ix]
    return classes == [{k} for k in arcs]


def build_ranking(seed: int, workdir: str, oracles: Oracles) -> list[Op]:
    rng = random.Random(f"ranking:{seed}")
    ops = []
    # pinned: the smallest, the largest (tail and peak memory) and the
    # cycle of n=40, which is the median op
    for family, count, pinned in (("path", 9, (0, 8)), ("cycle", 8, (0, 3, 7))):
        for k, n in enumerate(log_grid(rng, 20, 100, count, jitter=1, pinned=pinned)):
            g = GraphSpec(family, n)
            if family == "path":
                # alternate below the golden bound and above the cut-off root,
                # where a witness exists (1/rho > 1/2 on every path).  The
                # band above is narrow: the inversion count, and with it the
                # cost of agreement, grows with alpha there.
                alpha = rng.uniform(0.25, 0.40) if k % 2 == 0 else rng.uniform(0.465, 0.475)

                def run(g=g, alpha=alpha):
                    return ordering.agreement(g, alpha), None
            else:
                alpha = rng.uniform(0.1, 0.49)

                def run(g=g, alpha=alpha):
                    return ordering.agreement(g, alpha), ordering.class_structures_match(g, alpha)

            def check(out, g=g, alpha=alpha):
                report, classes_match = out
                error = check_agreement(report, g, alpha, oracles)
                if error or g.is_path:
                    return error
                expected = expected_cycle_classes_match(g, alpha, oracles)
                if expected is not None and classes_match != expected:
                    return f"class_structures_match {classes_match}, expected {expected}"
                return None

            ops.append(Op(f"agreement family={family} n={n} alpha={alpha!r}", run, check, repr))
    return ops


# -- pointwise -----------------------------------------------------------


def float64_size_limit(alpha: float) -> int:
    """Largest n for which d_n(alpha) is a normal float64.

    d_n = (r1^(n+1) - r2^(n+1)) / s with r1,2 = (1 +- s) / 2 and
    s = sqrt(1 - 4 alpha^2), so d_n ~ r1^(n+1) / s.  The closed forms divide
    by d_n (the cycle's denominator is of the same order), and the
    unscaled recurrence of ROADMAP item 1 loses precision once it leaves
    the normal range.
    """
    s = math.sqrt(1.0 - 4.0 * alpha * alpha)
    return math.floor((math.log(sys.float_info.min) + math.log(s)) / math.log((1.0 + s) / 2.0)) - 1


def point_op(family: str, n: int, i: int, j: int, alpha: float, oracles: Oracles) -> Op:
    """katz_path or katz_cycle at (n, i, j, alpha), checked by dense solve or limit."""
    fn = "katz_path" if family == "path" else "katz_cycle"

    def run():
        return getattr(katz, fn)(n, i, j, alpha)

    def check(value):
        if n <= DENSE_MAX_N:
            expected, route = oracles.dense_entry(family, n, i, j, alpha), "dense solve"
        else:
            if limit_gap_bound(n, j, alpha) > TOL / 100:
                return "no reference: limit gap bound above tolerance"
            if family == "path":
                expected = katz.katz_limit_path(i, j, alpha)
            else:
                expected = katz.katz_limit_cycle(j - i, alpha)
            route = "limit"
        if not mixed_err(value, expected) <= TOL:
            return f"got {value!r}, {route} gives {expected!r}"
        return None

    return Op(f"{fn}(n={n}, i={i}, j={j}, alpha={alpha})", run, check, repr)


def build_pointwise(seed: int, workdir: str, oracles: Oracles) -> list[Op]:
    rng = random.Random(f"pointwise:{seed}")
    ops = []
    for family in ("path", "cycle"):
        for alpha in POINT_ALPHAS:
            n_max = min(POINT_MAX_N, float64_size_limit(alpha))
            # narrow draws: the op at the median costs O(n), and a full
            # stratum would move op_p50_ms with the seed by a tenth
            for n in stratified(rng, 10, n_max, 24, log=True, width=0.2):
                i = rng.randint(1, 3)
                j = i + (rng.randint(0, 3) if family == "path" else rng.randint(1, 3))
                ops.append(point_op(family, n, i, j, alpha, oracles))

    sizes = list(cli.DEFAULT_CONVERGE_SIZES)
    for k in range(16):
        family = ("path", "cycle")[k % 2]
        alpha = POINT_ALPHAS[(k // 2) % len(POINT_ALPHAS)]
        if family == "path":
            i = rng.randint(1, 3)
            j = i + rng.randint(0, 3)
            where = ["--i", str(i), "--j", str(j)]
        else:
            i, j = 1, 1 + rng.randint(1, 3)
            where = ["--offset", str(j - 1)]
        out = os.path.join(workdir, f"converge-{k}.csv")
        argv = ["converge", "--family", family, *where, "--alpha", repr(alpha), "--out", out]

        def check(path, family=family, i=i, j=j, alpha=alpha):
            header, rows = csv_rows(path)
            if header != ["n", "katz_exact", "limit_value", "abs_gap"] or len(rows) != len(sizes) + 1:
                return f"header {header} with {len(rows)} rows"
            limit = oracles.dense_entry(family, DENSE_MAX_N, i, j, alpha)
            for n, row in zip(sizes + ["inf"], rows):
                if row[0] != str(n):
                    return f"row for n={row[0]}, expected {n}"
                value, lim, gap = (float(x) for x in row[1:])
                expected = limit if n == "inf" else oracles.dense_entry(family, n, i, j, alpha)
                if mixed_err(value, expected) > TOL or mixed_err(lim, limit) > TOL:
                    return f"n={n}: katz {value!r} limit {lim!r}, dense gives {expected!r} and {limit!r}"
                if gap != abs(value - lim):
                    return f"n={n}: abs_gap {gap!r} != |{value!r} - {lim!r}|"
            return None

        ops.append(cli_op(f"cli converge {' '.join(argv[1:-2])}", argv, check))

    for k, span in enumerate(stratified(rng, 5, 37, 8)):
        j = 1 + k % 3
        n_lo = j + span
        n_hi = n_lo + 4
        out = os.path.join(workdir, f"cutoff-{k}.csv")
        argv = ["cutoff", "--j", str(j), "--n-lo", str(n_lo), "--n-hi", str(n_hi), "--out", out]

        def check(path, j=j, n_lo=n_lo, n_hi=n_hi):
            header, rows = csv_rows(path)
            if len(rows) != n_hi - n_lo + 1:
                return f"{len(rows)} rows for n={n_lo}..{n_hi}"
            roots = []
            for n, row in zip(range(n_lo, n_hi + 1), rows):
                if row[0] != str(n) or row[1] != str(j) or row[6] != "ok":
                    return f"row {row}"
                root = float(row[2])
                if float(row[3]) != root - INV_SQRT5:
                    return f"n={n}: root_minus_inv_sqrt5 {row[3]}"
                error = check_cutoff(n, j, root, int(row[4]), float(row[5]))
                if error:
                    return f"n={n}: {error}"
                roots.append(root)
            if not all(a > b for a, b in zip(roots, roots[1:])):
                return "roots not decreasing in n"
            return None

        ops.append(cli_op(f"cli cutoff {' '.join(argv[1:-2])}", argv, check))

    for j in range(1, 6):
        for n in stratified(rng, j + 5, j + 46, 4):

            def run(n=n, j=j):
                return ordering.cutoff_root(n, j)

            def check(r, n=n, j=j):
                return check_cutoff(n, j, r.root, r.iterations, r.residual)

            ops.append(Op(f"cutoff_root(n={n}, j={j})", run, check, repr))
    return ops


# -- verify --------------------------------------------------------------


def build_verify(seed: int, workdir: str, oracles: Oracles) -> list[Op]:
    """One op per suite of verify.ALL_SUITES at level quick, in their order.

    The suites sweep fixed grids, so the seed changes nothing here.  Level
    full was dropped: one pass takes ~30 s, more than half of it a single
    resistance_oracle run whose time varied by a quarter between runs on
    the shared reference host, with no room in a run to repeat it.  quick
    calls the same functions on smaller grids.
    """
    ops = []
    for suite in verify.ALL_SUITES:
        name = suite.__name__

        def run(name=name):
            return getattr(verify, name)("quick")

        def check(result):
            return None if result.passed else f"{len(result.failures)} failures, first: {result.failures[0]}"

        def fingerprint(result):
            return f"{result.passed}:{result.checks}:{result.max_err!r}"

        ops.append(Op(f"verify {name} level=quick", run, check, fingerprint))
    return ops


OP_LISTS = {
    "scatter": build_scatter,
    "ranking": build_ranking,
    "pointwise": build_pointwise,
    "verify": build_verify,
}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    return OP_LISTS[workload](seed, workdir, Oracles())


def build_range_probe(workload: str) -> list[Op]:
    """Point entries beyond float64_size_limit, run once and listed, never timed.

    At the seed commit these fail (ROADMAP item 1): katz_path(1200, 1, 2,
    0.499) returns 0.499, katz_cycle(1200, 1, 2, 0.499) returns 0.0, and
    katz_path(2200, 1, 2, 0.45) is off by 5e-8.  They stay out of the timed
    op list, whose ops must all pass, and are reported by name instead, so
    that a fix shows as probe ops that stop failing.
    """
    if workload != "pointwise":
        return []
    oracles = Oracles()
    return [
        point_op(family, n, 1, 2, alpha, oracles)
        for family in ("path", "cycle")
        for alpha in POINT_ALPHAS
        for n in PROBE_SIZES
        if float64_size_limit(alpha) < n
    ]
