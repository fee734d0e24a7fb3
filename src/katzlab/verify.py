"""Numerical property suites behind `katzlab verify`.

Every identity, bound, and cross-check the package rests on, swept over
fixed deterministic grids and reported one line per property.  The `quick`
level covers n <= 30-ish in a few seconds; `full` widens the sweeps to the
sizes the acceptance tolerances are stated at (n <= 100 polynomial
identities, n <= 40 oracle comparisons).

A suite is one function under ``@_suite(name, tolerance)`` and nothing
else: its body only records checks on the SuiteResult it is handed, and
the decorator builds that result, refuses an unknown level, times the
body and appends the suite to ALL_SUITES, the order `verify` runs and
prints them in.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import dpoly, exact, katz, ordering
from .dpoly import INV_SQRT5
from .graphs import (
    CYCLE,
    FAMILIES,
    PATH,
    GraphSpec,
    _SMALLEST_N,
    _pair_labels,
    graph_distance,
    resistance,
    resistance_oracle,
    spectral_radius,
    spectral_radius_oracle,
)

DPOLY_GRID = [k / 100 for k in range(1, 50)]
DPOLY_PROBED = DPOLY_GRID + [INV_SQRT5, 0.499]


def katz_grid(g: GraphSpec) -> list[float]:
    """The admissible part of the 0.02-step decay grid for one graph."""
    bound = 1.0 / spectral_radius(g)
    return [k / 50 for k in range(1, 50) if k / 50 < bound]


def _sweep(n_max: int, families: tuple[str, ...] = FAMILIES) -> Iterator[GraphSpec]:
    """Every graph of each family in turn (paths, then cycles), from the family's smallest n up to n_max."""
    for family in families:
        for n in range(_SMALLEST_N[family], n_max + 1):
            yield GraphSpec(family, n)


def mixed_err(a, b):
    """|a - b| relative to max(1, |a|, |b|): relative above 1, absolute below; elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def rel_err(a, b):
    """|a - b| relative to max(|a|, |b|); elementwise."""
    return np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))


def _loop_grid(outer, inner) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (o, i) of the loop `for o in outer: for i in inner(o)`, in loop order."""
    pairs = [(o, i) for o in outer for i in inner(o)]
    o, i = np.array(pairs, dtype=int).reshape(-1, 2).T
    return o, i


@dataclass
class SuiteResult:
    """Checks of one property.

    The array forms record_all and check_all equal calling record or check
    once per element in flat (C) order, with context(index) giving the
    element's context string; failures keep that order.
    """

    name: str
    tolerance: float
    checks: int = 0
    max_err: float = 0.0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def margin(self) -> float | None:
        """max_err / tolerance, how close the property came to failing; None for exact checks."""
        return self.max_err / self.tolerance if self.tolerance else None

    def record(self, err: float, context: str) -> None:
        """One error check; a non-finite err fails and a NaN one becomes max_err."""
        err = float(err)
        self.checks += 1
        if err > self.max_err or math.isnan(err):
            self.max_err = err
        if not math.isfinite(err) or err > self.tolerance:
            self.failures.append(f"{context}: err={err:.3e}")

    def record_all(self, errs, context: Callable[[int], str]) -> None:
        errs = np.asarray(errs, dtype=float).ravel()
        self.checks += errs.size
        if np.isnan(errs).any():
            self.max_err = math.nan
        above = errs[errs > self.max_err]
        if above.size:
            self.max_err = float(above.max())
        for index in np.flatnonzero(~np.isfinite(errs) | (errs > self.tolerance)):
            self.failures.append(f"{context(int(index))}: err={errs[index]:.3e}")

    def check(self, ok: bool, context: str) -> None:
        """Boolean check; failed checks count as err = 1."""
        self.checks += 1
        if not ok:
            self.max_err = max(self.max_err, 1.0)
            self.failures.append(context)

    def check_all(self, ok, context: Callable[[int], str]) -> None:
        ok = np.asarray(ok, dtype=bool).ravel()
        self.checks += ok.size
        failed = np.flatnonzero(~ok)
        if failed.size:
            self.max_err = max(self.max_err, 1.0)
            self.failures.extend(context(int(index)) for index in failed)


# every suite, in definition order, as @_suite declares them
ALL_SUITES: list[Callable[[str], SuiteResult]] = []


def _suite(name: str, tolerance: float):
    """Declare body(res, level), which records its checks on res, as the suite ``suite(level) -> SuiteResult``.

    The suite refuses a level other than quick and full, hands body a
    fresh SuiteResult(name, tolerance), times body into its seconds and
    returns it; it keeps body's name and docstring and joins ALL_SUITES.
    """

    def declare(body: Callable[[SuiteResult, str], None]) -> Callable[[str], SuiteResult]:
        def suite(level: str) -> SuiteResult:
            if level not in ("quick", "full"):
                raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
            res = SuiteResult(name, tolerance)
            started = time.perf_counter()
            body(res, level)
            res.seconds = time.perf_counter() - started
            return res

        suite.__name__, suite.__qualname__, suite.__doc__ = body.__name__, body.__qualname__, body.__doc__
        ALL_SUITES.append(suite)
        return suite

    return declare


@_suite("d recursion matches exact closed sum", 1e-12)
def suite_d_recursion_vs_closed(res: SuiteResult, level: str) -> None:
    """d_recursive against d_closed; the recursion runs once per n over all the alphas."""
    n_max = 100 if level == "full" else 30
    sizes = range(n_max + 1)
    closed = np.array([dpoly.d_closed_sequence(n_max, alpha) for alpha in DPOLY_PROBED])
    # (alpha, n), as closed
    recursive = np.array([dpoly.d_recursive(n, DPOLY_PROBED) for n in sizes]).T
    res.record_all(
        mixed_err(closed, recursive),
        lambda f: f"n={f % len(sizes)} alpha={DPOLY_PROBED[f // len(sizes)]}",
    )


@_suite("d splitting identity", 1e-12)
def suite_d_splitting(res: SuiteResult, level: str) -> None:
    n_max = 60 if level == "full" else 30
    n, k = _loop_grid(range(2, n_max + 1), lambda n: range(1, n))
    for alpha in DPOLY_PROBED:
        a2 = alpha * alpha
        seq = np.array(dpoly.d_sequence(n_max, alpha))
        rhs = seq[k] * seq[n - k] - a2 * seq[k - 1] * seq[n - k - 1]
        res.record_all(mixed_err(seq[n], rhs), lambda f: f"n={n[f]} k={k[f]} alpha={alpha}")


@_suite("d product identity", 1e-12)
def suite_d_product(res: SuiteResult, level: str) -> None:
    """d_k d_n - d_{k-1} d_{n+1} = alpha^(2k) d_{n-k} on the float d-sequence.

    Tolerance: no error bound is derived.  Both sides are below 1, so
    mixed_err is absolute, and the left side cancels two products below 1:
    its error is a few ulp of 1 plus the d-recursion's own rounding, for
    which no bound is stated yet (ROADMAP item 13).  The largest error
    measured at level quick is 2.0e-16, a margin of 2.0e-4.
    """
    n_max = 60 if level == "full" else 30
    n, k = _loop_grid(range(1, n_max + 1), lambda n: range(1, n + 1))
    for alpha in DPOLY_PROBED:
        seq = np.array(dpoly.d_sequence(n_max + 1, alpha))
        # Python's pow: numpy's vectorised power may round differently
        even_powers = np.array([alpha ** (2 * m) for m in range(n_max + 1)])
        lhs = seq[k] * seq[n] - seq[k - 1] * seq[n + 1]
        rhs = even_powers[k] * seq[n - k]
        res.record_all(mixed_err(lhs, rhs), lambda f: f"n={n[f]} k={k[f]} alpha={alpha}")


@_suite("d monotone bounds", 0.0)
def suite_d_bounds(res: SuiteResult, level: str) -> None:
    n_max = 100
    seq = np.array([dpoly.d_sequence(n_max, alpha) for alpha in DPOLY_PROBED])
    # strict decrease starts at n = 2 (d_0 = d_1 = 1 by definition)
    prev, cur = seq[:, 1:-1], seq[:, 2:]
    ok = (prev > cur) & (cur > 0.5 * prev) & (0.5 * prev > 0.0)

    def context(f):
        a, n = divmod(f, n_max - 1)
        n += 2
        return f"n={n} alpha={DPOLY_PROBED[a]}: d_prev={float(seq[a, n - 1])!r} d={float(seq[a, n])!r}"

    res.check_all(ok, context)


@_suite("d special values at the probe points", 1e-12)
def suite_d_special_values(res: SuiteResult, level: str) -> None:
    n_max = 200 if level == "full" else 60
    half = dpoly.d_sequence(n_max, 0.5)
    root5 = dpoly.d_sequence(n_max, INV_SQRT5)
    for n in range(n_max + 1):
        res.record(rel_err(dpoly.d_special_half(n), half[n]), f"half n={n}")
        res.record(rel_err(dpoly.d_special_root5(n), root5[n]), f"root5 n={n}")
    for n in range(2, n_max + 1):
        err = abs(dpoly.fib_ratio(n - 1) * (1.0 - dpoly.fib_ratio(n)) - 0.2)
        res.record(err, f"fib identity n={n}")


@_suite("d ratio limit constant", 1e-8)
def suite_d_ratio_limit(res: SuiteResult, level: str) -> None:
    """d_{n+k}/d_n at n = 400 against its limit ratio_constant(k, alpha).

    Tolerance: not derived from a bound.  With r1, r2 = (1 +- s)/2 and
    s = sqrt(1 - 4 alpha^2), the ratio is r1^k (1 - (r2/r1)^(n+k+1)) /
    (1 - (r2/r1)^(n+1)), so the truncation error is about r1^k (r2/r1)^401,
    below 1e-160 at these alphas.  What is measured is rounding: of the two
    recursion terms, for which no bound is stated yet (ROADMAP item 13),
    and of c^k.  The largest error at level quick is 1.1e-16, a margin of
    1.1e-8 against the 1e-8 kept from the first version.
    """
    n = 400
    for alpha in (0.1, 0.3, 0.45):
        seq = dpoly.d_sequence(n + 3, alpha)
        for k in (1, 2, 3):
            err = abs(seq[n + k] / seq[n] - dpoly.ratio_constant(k, alpha))
            res.record(err, f"k={k} alpha={alpha}")


@_suite("d vanishing power ratio bound", 0.0)
def suite_d_vanishing_ratio(res: SuiteResult, level: str) -> None:
    n_max = 200
    alpha = np.array(DPOLY_PROBED)[:, None]
    seq = np.array([dpoly.d_sequence(n_max, a) for a in DPOLY_PROBED])
    # alpha^1 .. alpha^n_max per row by repeated multiplication, the suite's
    # own powers, independent of the Python pow the routes take them with
    power = np.cumprod(np.repeat(alpha, n_max, axis=1), axis=1)
    bound = 2.0 * alpha / (np.arange(1, n_max + 1) + 1)
    res.check_all(
        power / seq[:, 1:] <= bound * (1.0 + 1e-13),
        lambda f: f"n={f % n_max + 1} alpha={DPOLY_PROBED[f // n_max]}",
    )


@_suite("d golden-ratio lower bound", 0.0)
def suite_d_golden_lower_bound(res: SuiteResult, level: str) -> None:
    grid = [a for a in DPOLY_GRID if a < INV_SQRT5]
    seq = np.array([dpoly.d_sequence(100, alpha) for alpha in grid])
    fib = np.array([dpoly.fib_ratio(n) for n in range(1, 101)])
    res.check_all(
        seq[:, 1:] >= fib * seq[:, :-1] - 1e-15,
        lambda f: f"n={f % 100 + 1} alpha={grid[f // 100]}",
    )


@_suite("path determinant identity", 1e-11)
def suite_path_determinant(res: SuiteResult, level: str) -> None:
    """The eliminated det(I - alpha A) of each path against d_n, both over its whole alpha grid at once."""
    n_max = 40 if level == "full" else 20
    for g in _sweep(n_max, (PATH,)):
        alphas = katz_grid(g)
        closed = dpoly.d_recursive(g.n, alphas)
        oracle = katz.determinant_path(g.n, alphas)
        res.record_all(rel_err(oracle, closed), lambda f: f"n={g.n} alpha={alphas[f]}")


@_suite("cycle determinant identity", 1e-11)
def suite_cycle_determinant(res: SuiteResult, level: str) -> None:
    """The eliminated det(I - alpha A) of each cycle against D_n, both over its whole alpha grid at once.

    Tolerance: no bound is known.  D_n has the factor 1 - 2 alpha, so both
    routes lose relative accuracy as alpha nears 1/2: the recursion's
    d_{n-1} - 2 alpha^n - 2 alpha^2 d_{n-2} cancels, and the elimination's
    error relative to a small determinant grows.  Neither error is bounded
    in the package yet (ROADMAP item 13).  The largest relative error at
    level quick is 1.9e-15, a margin of 1.9e-4.
    """
    n_max = 40 if level == "full" else 20
    for g in _sweep(n_max, (CYCLE,)):
        alphas = katz_grid(g)
        closed = dpoly.D_cycle_denominator(g.n, alphas)
        oracle = katz.determinant_cycle(g.n, alphas)
        res.record_all(rel_err(oracle, closed), lambda f: f"n={g.n} alpha={alphas[f]}")


@_suite("cycle determinant parity factorization", 1e-12)
def suite_cycle_parity_factorization(res: SuiteResult, level: str) -> None:
    """D_parity_form against D_cycle_denominator, each evaluated once per n over the whole grid."""
    n_max = 100 if level == "full" else 40
    for n in range(3, n_max + 1):
        err = rel_err(dpoly.D_parity_form(n, DPOLY_GRID), dpoly.D_cycle_denominator(n, DPOLY_GRID))
        res.record_all(err, lambda f: f"n={n} alpha={DPOLY_GRID[f]}")


@_suite("spectral radius closed form vs power iteration", 1e-10)
def suite_spectral_radius(res: SuiteResult, level: str) -> None:
    """2 cos(pi/(n+1)) and 2 against the power-iteration oracle.

    Tolerance: from the oracle's stopping rule.  For a symmetric matrix an
    eigenvalue lies within the residual norm ||B v - theta v|| of the
    Rayleigh quotient theta (Parlett, The Symmetric Eigenvalue Problem,
    1998, ch. 4), and the oracle stops once that norm is below 1e-13;
    the closed form adds a few ulp.  The tolerance 1e-10 is a thousand
    times that bound.  The largest error at level quick is 2.7e-15, a
    margin of 2.7e-5.
    """
    sizes = (2, 3, 5, 10, 17, 40)
    for g in [GraphSpec(family, n) for n in sizes for family in FAMILIES if n >= _SMALLEST_N[family]]:
        res.record(abs(spectral_radius(g) - spectral_radius_oracle(g)), f"{g.family} n={g.n}")


@_suite("resistance closed form vs pseudoinverse oracle", 1e-10)
def suite_resistance_oracle(res: SuiteResult, level: str) -> None:
    n_max = 40 if level == "full" else 20
    for g in _sweep(n_max):
        i, j = _pair_labels(g.n)
        errs = np.abs(resistance(g, i, j) - resistance_oracle(g, i, j))
        res.record_all(errs, lambda f: f"{g.family} n={g.n} pair=({i[f]},{j[f]})")


@_suite("metric symmetry and triangle inequality", 0.0)
def suite_metric_axioms(res: SuiteResult, level: str) -> None:
    for g in _sweep(20):
        family, n = g.family, g.n
        labels = np.arange(1, n + 1)
        dist = graph_distance(g, labels[:, None], labels)
        resist = resistance(g, labels[:, None], labels)
        upper = np.triu_indices(n, k=1)
        # per pair i < j: distance, then resistance
        symmetric = np.stack([dist[upper] == dist.T[upper], resist[upper] == resist.T[upper]], axis=1)
        metric = ("distance", "resistance")
        res.check_all(
            symmetric,
            lambda f: f"{family} n={n} {metric[f % 2]} symmetry "
            f"({upper[0][f // 2] + 1},{upper[1][f // 2] + 1})",
        )
        # axes (i, j, via): m[i, j] <= m[i, via] + m[via, j]
        ok_d = dist[:, :, None] <= dist[:, None, :] + dist.T[None, :, :]
        ok_r = resist[:, :, None] <= resist[:, None, :] + resist.T[None, :, :] + 1e-12

        def triangle(f):
            i, j, via = np.unravel_index(f, (n, n, n))
            return f"{family} n={n} triangle ({i + 1},{via + 1},{j + 1})"

        res.check_all(ok_d & ok_r, triangle)


@_suite("katz closed form vs inverse oracle", 1e-10)
def suite_katz_closed_vs_inverse(res: SuiteResult, level: str) -> None:
    n_max = 40 if level == "full" else 25
    for g in _sweep(n_max):
        alphas = katz_grid(g)
        closed = (katz.katz_path_matrix if g.is_path else katz.katz_cycle_matrix)(g.n, alphas)
        inverse = katz.katz_oracle_inverse(g, alphas)
        errs = (np.abs(closed - inverse) / np.abs(inverse)).max(axis=(1, 2))
        res.record_all(errs, lambda f: f"{g.family} n={g.n} alpha={alphas[f]}")


@_suite("katz series oracle vs inverse oracle", 1e-11)
def suite_series_vs_inverse(res: SuiteResult, level: str) -> None:
    if level == "full":
        sizes = range(5, 41)
        grids = katz_grid
    else:
        sizes = (5, 12, 25)
        grids = lambda g: [a for a in (0.1, 0.3, 0.46) if a < 1.0 / spectral_radius(g)]
    for family in FAMILIES:
        for n in sizes:
            g = GraphSpec(family, n)
            alphas = grids(g)
            series = katz.katz_oracle_series(g, alphas)
            inverse = katz.katz_oracle_inverse(g, alphas)
            errs = np.abs(series - inverse).max(axis=(1, 2))
            res.record_all(errs, lambda f: f"{family} n={n} alpha={alphas[f]}")


@_suite("katz decreasing in path distance from an endpoint", 0.0)
def suite_katz_distance_monotone(res: SuiteResult, level: str) -> None:
    alphas = [a for a in DPOLY_PROBED if a < 0.5]
    for n in range(3, 31):
        # the pairs (1, 1 + s), s = 1..n-1, per alpha
        rows = katz.katz_pair_entries(GraphSpec.path(n), alphas, np.ones(n - 1, dtype=int), np.arange(2, n + 1))
        res.check_all((rows[:, :-1] > rows[:, 1:]).all(axis=1), lambda f: f"n={n} alpha={alphas[f]}")


@_suite("katz non-decreasing under centered pair shifts", 0.0)
def suite_katz_shift_monotone(res: SuiteResult, level: str) -> None:
    alphas = [a for a in DPOLY_PROBED if a < 0.5]
    for n in range(3, 31):
        k, i = _loop_grid(range(1, n - 1), lambda k: [i for i in range(1, n - k) if n - k - 2 * i - 1 >= 0])
        # per alpha, the pairs (i, i + k) and then their shifts (i + 1, i + k + 1)
        firsts, seconds = np.concatenate((i, i + 1)), np.concatenate((i + k, i + k + 1))
        left, right = np.split(katz.katz_pair_entries(GraphSpec.path(n), alphas, firsts, seconds), 2, axis=1)

        def context(f):
            a, f = divmod(f, len(k))
            return f"n={n} k={k[f]} i={i[f]} alpha={alphas[a]}"

        # per alpha, then per (k, i): the flat order of the (alpha, pair) array
        res.check_all(left <= right + 1e-13, context)


@_suite("cycle katz depends only on arc length", 1e-13)
def suite_cycle_translation_invariance(res: SuiteResult, level: str) -> None:
    """The spread of the dense oracle's entries within each arc class, per alpha and arc length k.

    One gather per n reads the 2n entries (i, i + k) and (i, i - k), mod n,
    of every arc length k (at k = n/2 each entry twice); max and min do not
    round, so each spread is that of the class's entries read alone.
    """
    alphas = (0.1, 0.3, 0.46)
    for n in range(5, 31):
        rows = np.tile(np.arange(n), 2)
        arcs = np.arange(1, n // 2 + 1)[:, None]
        cols = (rows + np.where(np.arange(2 * n) < n, arcs, -arcs)) % n
        # the dense oracle: the closed-form matrix is a circulant of the arc values, equal by construction
        vals = katz.katz_oracle_inverse(GraphSpec.cycle(n), alphas)[:, rows, cols]
        spread = (vals.max(axis=2) - vals.min(axis=2)) / np.maximum(1.0, np.abs(vals).max(axis=2))
        res.record_all(spread, lambda f: f"n={n} k={f % len(arcs) + 1} alpha={alphas[f // len(arcs)]}")


@_suite("cycle pair-ranking agreement across all metrics", 0.0)
def suite_cycle_agreement(res: SuiteResult, level: str) -> None:
    n_max = 30 if level == "full" else 20
    for n in range(5, n_max + 1):
        g = GraphSpec.cycle(n)
        alphas = katz_grid(g)
        reports = ordering.agreement(g, alphas)
        matches = ordering.class_structures_match(g, alphas)
        for alpha, report, match in zip(alphas, reports, matches):
            res.check(report.all_agree(), f"n={n} alpha={alpha}: witness={report.witness}")
            res.check(match, f"n={n} alpha={alpha}: tie classes differ")


@_suite("path ranking agreement below the golden bound", 0.0)
def suite_path_agreement_below_cutoff(res: SuiteResult, level: str) -> None:
    for n in range(3, 31):
        g = GraphSpec.path(n)
        alphas = [a for a in katz_grid(g) if a < INV_SQRT5]
        for alpha, report in zip(alphas, ordering.agreement(g, alphas)):
            res.check(report.all_agree(), f"n={n} alpha={alpha}: witness={report.witness}")


@_suite("path ranking inversion at alpha = 0.46", 0.0)
def suite_path_inversion_witness(res: SuiteResult, level: str) -> None:
    report = ordering.agreement(GraphSpec.path(10), 0.46)
    res.check(not report.katz_vs_resistance, "katz vs resistance unexpectedly agreed on P_10 at 0.46")
    res.check(report.witness is not None, "no witness produced")
    if report.witness is not None:
        g = GraphSpec.path(10)
        da = graph_distance(g, report.witness.pair_a.i, report.witness.pair_a.j)
        db = graph_distance(g, report.witness.pair_b.i, report.witness.pair_b.j)
        res.check(abs(da - db) == 1, f"witness distances {da} and {db} do not differ by 1")


@_suite("gap polynomial sign equivalence", 0.0)
def suite_gap_sign_equivalence(res: SuiteResult, level: str) -> None:
    """p_gap and p_tilde share their sign, or both vanish; each runs once per (n, j) over DPOLY_PROBED."""
    for n in range(3, 31):
        for j in (1, 2, 3):
            if n - j < 2:
                continue
            gap = ordering.p_gap(n, j, DPOLY_PROBED)
            tilde = ordering.p_tilde(n, j, DPOLY_PROBED)
            ok = (gap * tilde > 0.0) | ((np.abs(gap) < 1e-12) & (np.abs(tilde) < 1e-12))
            res.check_all(
                ok,
                lambda f: f"n={n} j={j} alpha={DPOLY_PROBED[f]}: p_gap={gap[f]:.3e} p_tilde={tilde[f]:.3e}",
            )


@_suite("gap polynomial values at the probe points", 0.0)
def suite_gap_probe_endpoints(res: SuiteResult, level: str) -> None:
    """Signs of p_tilde at the bracket probes.

    The root sits delta(span) above 1/sqrt 5 with delta shrinking
    geometrically in span = n - j; exact rational evaluation puts the
    first delta below 1e-9 at span 40, so the 1e-9-shifted probe reads
    positive through span 39 and negative from span 40 on.
    """
    for j in (1, 2, 3):
        for span in range(5, 51):
            n = span + j
            left = ordering.p_tilde(n, j, INV_SQRT5 + 1e-9)
            if span <= 39:
                res.check(left > 0.0, f"left probe n={n} j={j} expected positive")
            else:
                res.check(left < 0.0, f"left probe n={n} j={j} expected past the root")
            res.check(ordering.p_tilde(n, j, 0.5) < 0.0, f"right probe n={n} j={j}")
        res.check(abs(ordering.p_tilde(4 + j, j, 0.5)) <= 1e-14, f"zero at span 4, j={j}")
        values = [ordering.p_tilde(span + j, j, INV_SQRT5) for span in range(2, 51)]
        res.check(all(v > 0.0 for v in values), f"j={j}: probe value not positive")
        for prev, nxt in zip(values, values[2:]):
            res.check(nxt < prev, f"j={j}: probe values not decreasing toward 0")


@_suite("cycle arc-class separation margin", 1e-12)
def suite_cycle_numerator_gap(res: SuiteResult, level: str) -> None:
    """Arc-class margins: positive, decreasing in k, half-arc closed form.

    The half-arc factor is (1 - 2 alpha): expanding the four-term margin
    with the recursion d_l = d_{l-1} - alpha^2 d_{l-2} collapses it to
    alpha^(l-1) (1 - 2 alpha) d_{l-1}, confirmed in exact rationals.

    The margins run once per (n, k) over the whole grid; the checks are
    then made per alpha, in the order of the loop over alphas.

    Tolerance: no bound is known.  Only the half-arc form is measured.
    Both sides are below 1, so mixed_err is absolute, and the four-term
    margin cancels terms of size alpha^(l-1) < 1: its error is a few ulp
    of 1 plus the d-recursion's rounding, for which no bound is stated yet
    (ROADMAP item 13).  The largest error at level quick is 3.1e-17, a
    margin of 3.1e-5.
    """
    n_max = 40 if level == "full" else 20
    grid = [a for a in DPOLY_GRID if a < 0.5]
    for n in range(5, n_max + 1):
        # (k, alpha)
        gaps = np.array([ordering.cycle_numerator_gap(n, k, grid) for k in range(1, n // 2)])
        positive = (gaps > 0.0).all(axis=0).tolist()
        decreasing = (gaps[:-1] >= gaps[1:] - 1e-15).all(axis=0).tolist()
        if n % 2 == 0:
            ell = n // 2
            powers = np.array([alpha ** (ell - 1) for alpha in grid])
            closed = powers * dpoly.d_recursive(ell - 1, grid) * (1.0 - 2.0 * np.array(grid))
            errs = mixed_err(gaps[-1], closed).tolist()
        for a, alpha in enumerate(grid):
            res.check(positive[a], f"n={n} alpha={alpha}: non-positive margin")
            res.check(decreasing[a], f"n={n} alpha={alpha}: margins not decreasing in k")
            if n % 2 == 0:
                res.record(errs[a], f"n={n} alpha={alpha}: half-arc margin form")


@_suite("cut-off roots: bracket, monotonicity", 0.0)
def suite_cutoff_roots(res: SuiteResult, level: str) -> None:
    """Every root found, inside the bracket, strictly decreasing in n.

    Adjacent roots at the large-n tail differ by a few 1e-13, so this
    rests on cutoff_root's fixed bracket width, BISECTION_WIDTH = 1e-15: a
    coarser bisection would report spurious ties.
    """
    n_hi = 61 if level == "full" else 36
    roots = []
    for n in range(6, n_hi + 1):
        try:
            result = ordering.cutoff_root(n, 1)
        except ordering.BracketError as exc:
            res.check(False, f"n={n}: {exc}")
            continue
        res.check(INV_SQRT5 < result.root < 0.5, f"n={n}: root {result.root} outside bracket")
        res.check(result.residual <= 1e-10, f"n={n}: residual {result.residual:.3e}")
        roots.append(result.root)
    res.check(
        all(a > b for a, b in zip(roots, roots[1:])),
        "root sequence is not strictly decreasing",
    )


@_suite("katz entries converge to their limits", 1e-14)
def suite_limit_convergence(res: SuiteResult, level: str) -> None:
    """Entries approach their limits, and gaps shrink strictly.

    The gap ordering is checked in exact rational arithmetic: paths climb
    to the limit strictly from below and cycles descend strictly from
    above, which is the same statement as |entry - limit| strictly
    decreasing but stays decidable after the float gaps saturate at
    machine epsilon (already by n = 40 at these alphas).  Each entry is
    kept as its unreduced integer parts, which :func:`katzlab.exact._less`
    orders with no gcd.

    The float entries at n = 320 must lie within 1e-14 of their limits.
    At these alphas the true gap there is below 1e-60, so all that is left
    is the rounding of the entry and of the limit formula, and every limit
    is at most 1.44 in size: 1e-14 is 45 ulp of max(1, |limit|), where
    the suite reads 4.2e-16 (2 ulp).  A limit formula off by a relative
    1e-9 fails.
    """
    n_list = (10, 20, 40, 80, 160, 320)
    for alpha in (0.1, 0.3, 0.45):
        for i, j in ((1, 2), (2, 5), (3, 3)):
            limit = katz.katz_limit_path(i, j, alpha)
            res.record(abs(katz.katz_path(320, i, j, alpha) - limit), f"path ({i},{j}) alpha={alpha}")
            parts = [exact._path_exact_parts(n, i, j, alpha) for n in n_list]
            res.check(
                all(exact._less(a, b) for a, b in zip(parts, parts[1:])),
                f"path ({i},{j}) alpha={alpha}: entries not strictly climbing to the limit",
            )
        for offset in (1, 2, 3):
            limit = katz.katz_limit_cycle(offset, alpha)
            res.record(
                abs(katz.katz_cycle(320, 1, 1 + offset, alpha) - limit),
                f"cycle offset {offset} alpha={alpha}",
            )
            parts = [exact._cycle_exact_parts(n, 1, 1 + offset, alpha) for n in n_list]
            res.check(
                all(exact._less(b, a) for a, b in zip(parts, parts[1:])),
                f"cycle offset {offset} alpha={alpha}: entries not strictly descending to the limit",
            )



def run_suites(level: str = "quick") -> list[SuiteResult]:
    """Every suite at the level, in ALL_SUITES order, each with its seconds set."""
    return [suite(level) for suite in ALL_SUITES]
