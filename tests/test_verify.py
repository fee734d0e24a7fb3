"""The array-at-a-time suites against their scalar loops.

Each ``reference_*`` function below is the per-check loop the suite used
before it moved to stacked eliminations and array checks, kept here as the
test-only reference.  The array route must report the same check count, the
same max_err and the same failure strings in the same order, on the real
grids and with faults injected into the functions under test.
``reference_limit_convergence`` is the limit suite with its exact entries
from the list route of ``test_katz`` (the float formulas on a fully
normalised ``d_sequence_exact`` list), where the suite orders the
unreduced integer parts of ``katz_path_exact``/``katz_cycle_exact``, which
run no d-recursion, by cross-multiplying.  The gap-sign, arc-margin,
parity and arc-invariance references are the loops of one scalar call per
alpha (and per arc class) that those suites ran before the d/D evaluators
and gap polynomials took a sequence of alphas.
"""

import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from katzlab import cli, dpoly, katz, ordering, verify
from katzlab.dpoly import INV_SQRT5
from katzlab.graphs import GraphSpec, graph_distance
from katzlab.verify import DPOLY_GRID, DPOLY_PROBED, SuiteResult, katz_grid
from test_katz import list_route_cycle_exact, list_route_path_exact


def scalar_mixed_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def scalar_rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def reference_d_recursion_vs_closed(level):
    res = SuiteResult("d recursion matches exact closed sum", 1e-12)
    n_max = 100 if level == "full" else 30
    for alpha in DPOLY_PROBED:
        for n in range(n_max + 1):
            err = scalar_mixed_err(dpoly.d_closed(n, alpha), dpoly.d_recursive(n, alpha))
            res.record(err, f"n={n} alpha={alpha}")
    return res


def reference_d_splitting(level):
    res = SuiteResult("d splitting identity", 1e-12)
    n_max = 60 if level == "full" else 30
    for alpha in DPOLY_PROBED:
        a2 = alpha * alpha
        seq = dpoly.d_sequence(n_max, alpha)
        for n in range(2, n_max + 1):
            for k in range(1, n):
                rhs = seq[k] * seq[n - k] - a2 * seq[k - 1] * seq[n - k - 1]
                res.record(scalar_mixed_err(seq[n], rhs), f"n={n} k={k} alpha={alpha}")
    return res


def reference_d_product(level):
    res = SuiteResult("d product identity", 1e-12)
    n_max = 60 if level == "full" else 30
    for alpha in DPOLY_PROBED:
        seq = dpoly.d_sequence(n_max + 1, alpha)
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                lhs = seq[k] * seq[n] - seq[k - 1] * seq[n + 1]
                rhs = alpha ** (2 * k) * seq[n - k]
                res.record(scalar_mixed_err(lhs, rhs), f"n={n} k={k} alpha={alpha}")
    return res


def reference_d_bounds(level):
    res = SuiteResult("d monotone bounds", 0.0)
    n_max = 100
    for alpha in DPOLY_PROBED:
        seq = dpoly.d_sequence(n_max, alpha)
        for n in range(2, n_max + 1):
            ok = seq[n - 1] > seq[n] > 0.5 * seq[n - 1] > 0.0
            res.check(ok, f"n={n} alpha={alpha}: d_prev={seq[n - 1]!r} d={seq[n]!r}")
    return res


def reference_d_vanishing_ratio(level):
    res = SuiteResult("d vanishing power ratio bound", 0.0)
    n_max = 200
    for alpha in DPOLY_PROBED:
        seq = dpoly.d_sequence(n_max, alpha)
        power = 1.0
        for n in range(1, n_max + 1):
            power *= alpha
            bound = 2.0 * alpha / (n + 1)
            res.check(power / seq[n] <= bound * (1.0 + 1e-13), f"n={n} alpha={alpha}")
    return res


def reference_d_golden_lower_bound(level):
    res = SuiteResult("d golden-ratio lower bound", 0.0)
    grid = [a for a in DPOLY_GRID if a < INV_SQRT5]
    for alpha in grid:
        seq = dpoly.d_sequence(100, alpha)
        for n in range(1, 101):
            ok = seq[n] >= dpoly.fib_ratio(n) * seq[n - 1] - 1e-15
            res.check(ok, f"n={n} alpha={alpha}")
    return res


def reference_path_determinant(level):
    res = SuiteResult("path determinant identity", 1e-11)
    n_max = 40 if level == "full" else 20
    for n in range(2, n_max + 1):
        for alpha in katz_grid(GraphSpec.path(n)):
            err = scalar_rel_err(katz.determinant_path(n, alpha), dpoly.d_recursive(n, alpha))
            res.record(err, f"n={n} alpha={alpha}")
    return res


def reference_cycle_determinant(level):
    res = SuiteResult("cycle determinant identity", 1e-11)
    n_max = 40 if level == "full" else 20
    for n in range(3, n_max + 1):
        for alpha in katz_grid(GraphSpec.cycle(n)):
            err = scalar_rel_err(katz.determinant_cycle(n, alpha), dpoly.D_cycle_denominator(n, alpha))
            res.record(err, f"n={n} alpha={alpha}")
    return res


def reference_metric_axioms(level):
    res = SuiteResult("metric symmetry and triangle inequality", 0.0)
    for family in ("path", "cycle"):
        start = 2 if family == "path" else 3
        for n in range(start, 21):
            g = GraphSpec(family, n)
            dist = {(i, j): graph_distance(g, i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
            resist = {(i, j): verify.resistance(g, i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    res.check(dist[(i, j)] == dist[(j, i)], f"{family} n={n} distance symmetry ({i},{j})")
                    res.check(resist[(i, j)] == resist[(j, i)], f"{family} n={n} resistance symmetry ({i},{j})")
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for via in range(1, n + 1):
                        ok_d = dist[(i, j)] <= dist[(i, via)] + dist[(via, j)]
                        ok_r = resist[(i, j)] <= resist[(i, via)] + resist[(via, j)] + 1e-12
                        res.check(ok_d and ok_r, f"{family} n={n} triangle ({i},{via},{j})")
    return res


def reference_katz_closed_vs_inverse(level):
    res = SuiteResult("katz closed form vs inverse oracle", 1e-10)
    n_max = 40 if level == "full" else 25
    for family in ("path", "cycle"):
        start = 2 if family == "path" else 3
        for n in range(start, n_max + 1):
            g = GraphSpec(family, n)
            for alpha in katz_grid(g):
                closed = (
                    katz.katz_path_matrix(n, alpha) if g.is_path else katz.katz_cycle_matrix(n, alpha)
                )
                oracle = katz.katz_oracle_inverse(g, alpha)
                res.record(float((np.abs(closed - oracle) / np.abs(oracle)).max()), f"{family} n={n} alpha={alpha}")
    return res


def reference_katz_distance_monotone(level):
    res = SuiteResult("katz decreasing in path distance from an endpoint", 0.0)
    for n in range(3, 31):
        for alpha in [a for a in DPOLY_PROBED if a < 0.5]:
            # row[s - 1] is the pair (1, 1 + s)
            row = katz.katz_pair_entries(GraphSpec.path(n), alpha, np.ones(n - 1, dtype=int), np.arange(2, n + 1))
            ok = all(row[k] > row[k + 1] for k in range(n - 2))
            res.check(ok, f"n={n} alpha={alpha}")
    return res


def reference_katz_shift_monotone(level):
    res = SuiteResult("katz non-decreasing under centered pair shifts", 0.0)
    for n in range(3, 31):
        first, second = (labels + 1 for labels in np.triu_indices(n, k=1))
        pairs = list(zip(first.tolist(), second.tolist()))
        for alpha in [a for a in DPOLY_PROBED if a < 0.5]:
            m = dict(zip(pairs, katz.katz_pair_entries(GraphSpec.path(n), alpha, first, second).tolist()))
            for k in range(1, n - 1):
                for i in range(1, n - k):
                    if n - k - 2 * i - 1 < 0:
                        continue
                    left = m[i, i + k]
                    right = m[i + 1, i + k + 1]
                    res.check(left <= right + 1e-13, f"n={n} k={k} i={i} alpha={alpha}")
    return res


def reference_cycle_agreement(level):
    res = SuiteResult("cycle pair-ranking agreement across all metrics", 0.0)
    n_max = 30 if level == "full" else 20
    for n in range(5, n_max + 1):
        g = GraphSpec.cycle(n)
        for alpha in katz_grid(g):
            report = ordering.agreement(g, alpha)
            res.check(report.all_agree(), f"n={n} alpha={alpha}: witness={report.witness}")
            res.check(
                ordering.class_structures_match(g, alpha), f"n={n} alpha={alpha}: tie classes differ"
            )
    return res


def reference_path_agreement_below_cutoff(level):
    res = SuiteResult("path ranking agreement below the golden bound", 0.0)
    for n in range(3, 31):
        g = GraphSpec.path(n)
        for alpha in [a for a in katz_grid(g) if a < INV_SQRT5]:
            report = ordering.agreement(g, alpha)
            res.check(
                report.katz_vs_resistance and report.katz_vs_distance and report.resistance_vs_distance,
                f"n={n} alpha={alpha}: witness={report.witness}",
            )
    return res


def reference_cycle_parity_factorization(level):
    res = SuiteResult("cycle determinant parity factorization", 1e-12)
    n_max = 100 if level == "full" else 40
    for n in range(3, n_max + 1):
        for alpha in DPOLY_GRID:
            err = scalar_rel_err(dpoly.D_parity_form(n, alpha), dpoly.D_cycle_denominator(n, alpha))
            res.record(err, f"n={n} alpha={alpha}")
    return res


def reference_cycle_translation_invariance(level):
    res = SuiteResult("cycle katz depends only on arc length", 1e-13)
    alphas = (0.1, 0.3, 0.46)
    for n in range(5, 31):
        idx = np.arange(1, n + 1)
        span = np.abs(np.subtract.outer(idx, idx))
        arcs = np.minimum(span, n - span)
        for alpha, m in zip(alphas, katz.katz_oracle_inverse(GraphSpec.cycle(n), alphas)):
            for k in range(1, n // 2 + 1):
                vals = m[arcs == k]
                res.record(float(vals.max() - vals.min()) / max(1.0, float(np.abs(vals).max())), f"n={n} k={k} alpha={alpha}")
    return res


def reference_gap_sign_equivalence(level):
    res = SuiteResult("gap polynomial sign equivalence", 0.0)
    for n in range(3, 31):
        for j in (1, 2, 3):
            if n - j < 2:
                continue
            for alpha in DPOLY_PROBED:
                gap = ordering.p_gap(n, j, alpha)
                tilde = ordering.p_tilde(n, j, alpha)
                ok = gap * tilde > 0.0 or (abs(gap) < 1e-12 and abs(tilde) < 1e-12)
                res.check(ok, f"n={n} j={j} alpha={alpha}: p_gap={gap:.3e} p_tilde={tilde:.3e}")
    return res


def reference_cycle_numerator_gap(level):
    res = SuiteResult("cycle arc-class separation margin", 1e-12)
    n_max = 40 if level == "full" else 20
    grid = [a for a in DPOLY_GRID if a < 0.5]
    for n in range(5, n_max + 1):
        for alpha in grid:
            gaps = [ordering.cycle_numerator_gap(n, k, alpha) for k in range(1, n // 2)]
            res.check(all(gap > 0.0 for gap in gaps), f"n={n} alpha={alpha}: non-positive margin")
            res.check(
                all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:])),
                f"n={n} alpha={alpha}: margins not decreasing in k",
            )
            if n % 2 == 0:
                ell = n // 2
                closed = alpha ** (ell - 1) * dpoly.d_recursive(ell - 1, alpha) * (1.0 - 2.0 * alpha)
                res.record(scalar_mixed_err(gaps[-1], closed), f"n={n} alpha={alpha}: half-arc margin form")
    return res


LIMIT_PAIRS = ((1, 2), (2, 5), (3, 3))
LIMIT_OFFSETS = (1, 2, 3)


@functools.cache
def _list_route_at(n, alpha):
    """The limit suite's exact path entries by pair and cycle entries by offset at one size, by the list route."""
    return (
        dict(zip(LIMIT_PAIRS, list_route_path_exact(n, LIMIT_PAIRS, alpha))),
        dict(zip(LIMIT_OFFSETS, list_route_cycle_exact(n, LIMIT_OFFSETS, alpha))),
    )


# the exact entries of reference_limit_convergence; the limit faults patch
# these and katz's exact routes alike
LIST_ROUTES = {
    "katz_path_exact": lambda n, i, j, alpha: _list_route_at(n, alpha)[0][(i, j)],
    "katz_cycle_exact": lambda n, i, j, alpha: _list_route_at(n, alpha)[1][j - i],
}


def reference_limit_convergence(level):
    res = SuiteResult("katz entries converge to their limits", 1e-14)
    n_list = (10, 20, 40, 80, 160, 320)
    for alpha in (0.1, 0.3, 0.45):
        for i, j in LIMIT_PAIRS:
            limit = katz.katz_limit_path(i, j, alpha)
            res.record(abs(katz.katz_path(320, i, j, alpha) - limit), f"path ({i},{j}) alpha={alpha}")
            exact = [LIST_ROUTES["katz_path_exact"](n, i, j, alpha) for n in n_list]
            res.check(
                all(a < b for a, b in zip(exact, exact[1:])),
                f"path ({i},{j}) alpha={alpha}: entries not strictly climbing to the limit",
            )
        for offset in LIMIT_OFFSETS:
            limit = katz.katz_limit_cycle(offset, alpha)
            res.record(
                abs(katz.katz_cycle(320, 1, 1 + offset, alpha) - limit),
                f"cycle offset {offset} alpha={alpha}",
            )
            exact = [LIST_ROUTES["katz_cycle_exact"](n, 1, 1 + offset, alpha) for n in n_list]
            res.check(
                all(a > b for a, b in zip(exact, exact[1:])),
                f"cycle offset {offset} alpha={alpha}: entries not strictly descending to the limit",
            )
    return res


REFERENCES = {
    verify.suite_d_recursion_vs_closed: reference_d_recursion_vs_closed,
    verify.suite_d_splitting: reference_d_splitting,
    verify.suite_d_product: reference_d_product,
    verify.suite_d_bounds: reference_d_bounds,
    verify.suite_d_vanishing_ratio: reference_d_vanishing_ratio,
    verify.suite_d_golden_lower_bound: reference_d_golden_lower_bound,
    verify.suite_path_determinant: reference_path_determinant,
    verify.suite_cycle_determinant: reference_cycle_determinant,
    verify.suite_metric_axioms: reference_metric_axioms,
    verify.suite_katz_closed_vs_inverse: reference_katz_closed_vs_inverse,
    verify.suite_katz_distance_monotone: reference_katz_distance_monotone,
    verify.suite_katz_shift_monotone: reference_katz_shift_monotone,
    verify.suite_cycle_agreement: reference_cycle_agreement,
    verify.suite_path_agreement_below_cutoff: reference_path_agreement_below_cutoff,
    verify.suite_cycle_parity_factorization: reference_cycle_parity_factorization,
    verify.suite_cycle_translation_invariance: reference_cycle_translation_invariance,
    verify.suite_gap_sign_equivalence: reference_gap_sign_equivalence,
    verify.suite_cycle_numerator_gap: reference_cycle_numerator_gap,
}
RANKING_SUITES = [verify.suite_cycle_agreement, verify.suite_path_agreement_below_cutoff]


def assert_same(got: SuiteResult, want: SuiteResult) -> None:
    assert (got.name, got.tolerance) == (want.name, want.tolerance)
    assert got.checks == want.checks
    assert type(got.max_err) is float
    assert got.max_err == want.max_err or (math.isnan(got.max_err) and math.isnan(want.max_err))
    assert got.failures == want.failures


@pytest.mark.parametrize("suite", list(REFERENCES), ids=lambda s: s.__name__)
def test_array_suite_matches_scalar_loop(suite):
    want = REFERENCES[suite]("quick")
    got = suite("quick")
    assert want.passed
    assert_same(got, want)


@pytest.mark.parametrize("suite", [verify.suite_katz_distance_monotone, verify.suite_katz_shift_monotone],
                         ids=lambda s: s.__name__)
def test_monotone_suites_build_no_katz_matrix(suite, monkeypatch):
    monkeypatch.setattr(katz, "_matrices", lambda *args: pytest.fail("matrices called"))
    assert suite("quick").passed


@pytest.mark.parametrize("suite", RANKING_SUITES, ids=lambda s: s.__name__)
def test_ranking_suite_matches_per_alpha_loop_at_full(suite):
    want = REFERENCES[suite]("full")
    got = suite("full")
    assert want.passed
    assert_same(got, want)


def _swapped_entries(original, n_bad, alpha_bad):
    """_pair_entries whose scores of the pairs (1, 2) and (1, 4) trade places at (n_bad, alpha_bad).

    For a sequence of alphas, in the row of alpha_bad.
    """

    def swapped(g, alpha, i, j):
        scores = original(g, alpha, i, j)
        rows = zip(alpha, scores) if np.ndim(alpha) else [(alpha, scores)]
        for value, row in rows:
            if (g.n, value) == (n_bad, alpha_bad):
                a, b = (np.flatnonzero((i == 1) & (j == k))[0] for k in (2, 4))
                row[a], row[b] = row[b], row[a]
        return scores

    return swapped


RANKING_FAULTS = {
    verify.suite_cycle_agreement: ("_pair_entries", 8, 0.3),
    verify.suite_path_agreement_below_cutoff: ("_pair_entries", 7, 0.2),
}


@pytest.mark.parametrize("level", ["quick", "full"])
@pytest.mark.parametrize("suite", RANKING_SUITES, ids=lambda s: s.__name__)
def test_ranking_suite_matches_per_alpha_loop_under_fault(suite, level, monkeypatch):
    name, n_bad, alpha_bad = RANKING_FAULTS[suite]
    monkeypatch.setattr(ordering, name, _swapped_entries(getattr(ordering, name), n_bad, alpha_bad))
    want = REFERENCES[suite](level)
    got = suite(level)
    assert want.failures and all(f"n={n_bad} alpha={alpha_bad}: " in failure for failure in want.failures)
    assert_same(got, want)


@pytest.mark.parametrize("suite", RANKING_SUITES, ids=lambda s: s.__name__)
def test_ranking_suite_reads_each_graph_in_one_katz_call_per_routine(suite, monkeypatch):
    # every graph's alpha grid fits one block of ordering.BLOCK_ENTRIES
    # scores, so each ranking routine a suite calls on a graph makes one
    # _pair_entries call for the whole grid
    calls = []
    entries = ordering._pair_entries

    def counted(g, alpha, i, j):
        calls.append((g, list(alpha)))
        return entries(g, alpha, i, j)

    monkeypatch.setattr(ordering, "_pair_entries", counted)
    assert suite("quick").passed
    if suite is verify.suite_cycle_agreement:
        # agreement, then class_structures_match
        expected = [(g, katz_grid(g)) for g in map(GraphSpec.cycle, range(5, 21)) for _ in range(2)]
    else:
        expected = [(g, [a for a in katz_grid(g) if a < INV_SQRT5]) for g in map(GraphSpec.path, range(3, 31))]
    assert calls == expected


def _perturbed_path_matrix(original):
    """katz_path_matrix with entries (1, 4) and (2, 6) moved at three (n, alpha) points.

    For a sequence of alphas, the stack member of each such alpha.
    """

    def perturbed(n, alpha):
        m = original(n, alpha)
        members = zip(alpha, m) if np.ndim(alpha) else [(alpha, m)]
        for value, member in members:
            if (n, value) in ((7, 0.1), (7, 0.3), (9, 0.1)):
                member[0, 3] += 0.5
                member[1, 5] -= 0.5
        return m

    return perturbed


def _perturbed_pair_entries(original):
    """katz_pair_entries with the pairs (1, 4) and (2, 6) moved at three (n, alpha) points.

    For a sequence of alphas, the row of each such alpha.
    """

    def perturbed(g, alpha, i, j):
        entries = original(g, alpha, i, j)
        rows = zip(alpha, entries) if np.ndim(alpha) else [(alpha, entries)]
        for value, row in rows:
            if (g.n, value) in ((7, 0.1), (7, 0.3), (9, 0.1)):
                row[(i == 1) & (j == 4)] += 0.5
                row[(i == 2) & (j == 6)] -= 0.5
        return entries

    return perturbed


def _perturbed_sequence(original):
    """d_sequence with d_12 and d_14 shrunk a millionfold at alpha = 0.3."""

    def perturbed(n, alpha):
        seq = original(n, alpha)
        if alpha == 0.3 and n >= 14:
            seq[12] *= 1e-6
            seq[14] *= 1e-6
        return seq

    return perturbed


def _shifted_at(original, point, shift):
    """An evaluator f(*point, alpha) that is off by shift for alpha in (0.1, 0.3); other arguments pass through.

    For a sequence of alphas, the elements at 0.1 and 0.3 are off.
    """

    def shifted(*args):
        value = original(*args)
        *at, alpha = args
        if tuple(at) != point:
            return value
        if np.ndim(alpha):
            return np.where(np.isin(alpha, (0.1, 0.3)), value + shift, value)
        return value + shift if alpha in (0.1, 0.3) else value

    return shifted


def _skewed_oracle(original):
    """katz_oracle_inverse whose matrices of the 9-cycle read Katz(1, 3) 1e-6 high, off the arc-2 class."""

    def skewed(g, alpha):
        matrices = original(g, alpha)
        if g.n == 9:
            matrices[..., 0, 2] += 1e-6
        return matrices

    return skewed


def _asymmetric_resistance(original):
    """resistance that reads (5, 2) on the 6-cycle one higher than (2, 5)."""

    def asymmetric(g, i, j):
        value = original(g, i, j)
        if (g.family, g.n) != ("cycle", 6):
            return value
        if isinstance(value, np.ndarray):
            value = value.copy()
            value[(i == 5) & (j == 2)] += 1.0
            return value
        return value + 1.0 if (i, j) == (5, 2) else value

    return asymmetric


FAULTS = {
    "katz_path_matrix": (
        lambda mp: mp.setattr(katz, "katz_path_matrix", _perturbed_path_matrix(katz.katz_path_matrix)),
        [verify.suite_katz_closed_vs_inverse],
    ),
    "katz_pair_entries": (
        lambda mp: mp.setattr(katz, "katz_pair_entries", _perturbed_pair_entries(katz.katz_pair_entries)),
        [verify.suite_katz_distance_monotone, verify.suite_katz_shift_monotone],
    ),
    "d_sequence": (
        lambda mp: mp.setattr(dpoly, "d_sequence", _perturbed_sequence(dpoly.d_sequence)),
        [
            verify.suite_d_splitting,
            verify.suite_d_product,
            verify.suite_d_bounds,
            verify.suite_d_vanishing_ratio,
            verify.suite_d_golden_lower_bound,
        ],
    ),
    "d_recursive": (
        lambda mp: mp.setattr(dpoly, "d_recursive", _shifted_at(dpoly.d_recursive, (9,), 1e-6)),
        [verify.suite_d_recursion_vs_closed, verify.suite_path_determinant],
    ),
    "D_cycle_denominator": (
        lambda mp: mp.setattr(
            dpoly, "D_cycle_denominator", _shifted_at(dpoly.D_cycle_denominator, (11,), 1e-6)
        ),
        [verify.suite_cycle_determinant, verify.suite_cycle_parity_factorization],
    ),
    "D_parity_form": (
        lambda mp: mp.setattr(dpoly, "D_parity_form", _shifted_at(dpoly.D_parity_form, (12,), 1e-6)),
        [verify.suite_cycle_parity_factorization],
    ),
    # a gap of the other sign from its partner at (n, j) = (12, 2)
    "p_gap": (
        lambda mp: mp.setattr(ordering, "p_gap", _shifted_at(ordering.p_gap, (12, 2), -10.0)),
        [verify.suite_gap_sign_equivalence],
    ),
    "p_tilde": (
        lambda mp: mp.setattr(ordering, "p_tilde", _shifted_at(ordering.p_tilde, (12, 2), -10.0)),
        [verify.suite_gap_sign_equivalence],
    ),
    # the half-arc margin of the 12-cycle moves up: both a decrease check and its closed form fail, per alpha
    "cycle_numerator_gap": (
        lambda mp: mp.setattr(
            ordering, "cycle_numerator_gap", _shifted_at(ordering.cycle_numerator_gap, (12, 5), 1.0)
        ),
        [verify.suite_cycle_numerator_gap],
    ),
    "katz_oracle_inverse": (
        lambda mp: mp.setattr(katz, "katz_oracle_inverse", _skewed_oracle(katz.katz_oracle_inverse)),
        [verify.suite_cycle_translation_invariance],
    ),
    # the suite calls resistance by the name verify imported
    "resistance": (
        lambda mp: mp.setattr(verify, "resistance", _asymmetric_resistance(verify.resistance)),
        [verify.suite_metric_axioms],
    ),
}


@pytest.mark.parametrize(
    "fault, suite",
    [(fault, suite) for fault, (_, suites) in FAULTS.items() for suite in suites],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_array_suite_matches_scalar_loop_under_fault(fault, suite, monkeypatch):
    FAULTS[fault][0](monkeypatch)
    want = REFERENCES[suite]("quick")
    got = suite("quick")
    assert len(want.failures) >= 2
    assert_same(got, want)


@pytest.mark.parametrize("level", ["quick", "full"])
def test_limit_convergence_matches_list_route(level):
    want = reference_limit_convergence(level)
    got = verify.suite_limit_convergence(level)
    assert want.passed
    assert_same(got, want)
    assert repr(got.max_err) == repr(want.max_err)


def _exact_entry_nudged_at_80(original, shift):
    """An exact Katz entry whose value at n = 80 moves by shift."""

    def nudged(n, *args):
        value = original(n, *args)
        return value + shift if n == 80 else value

    return nudged


def _exact_parts_nudged_at_80(original, shift):
    """Integer parts (numerator, denominator) of an exact Katz entry whose value at n = 80 moves by shift."""

    def nudged(n, *args):
        num, den = original(n, *args)
        return (num * shift.denominator + shift.numerator * den, den * shift.denominator) if n == 80 else (num, den)

    return nudged


# 1e-12 dwarfs every exact gap between n = 80 and n = 160 at these alphas
# (the largest, on the cycle at 0.45, is about 3e-16); the float entries
# the suite compares with the limits are left alone.  The suite reads each
# exact entry through the integer parts helper named here.
LIMIT_FAULTS = {
    "katz_path_exact": ("_path_exact_parts", Fraction(1, 10**12), "not strictly climbing"),
    "katz_cycle_exact": ("_cycle_exact_parts", -Fraction(1, 10**12), "not strictly descending"),
}


@pytest.mark.parametrize("name", list(LIMIT_FAULTS))
def test_limit_convergence_fails_when_exact_order_breaks(name, monkeypatch):
    parts, shift, message = LIMIT_FAULTS[name]
    monkeypatch.setattr(katz, parts, _exact_parts_nudged_at_80(getattr(katz, parts), shift))
    monkeypatch.setitem(LIST_ROUTES, name, _exact_entry_nudged_at_80(LIST_ROUTES[name], shift))
    want = reference_limit_convergence("quick")
    got = verify.suite_limit_convergence("quick")
    # three entries at each of the three alphas, and nothing else
    assert len(got.failures) == 9
    assert all(message in failure for failure in got.failures)
    assert got.max_err == 1.0
    assert_same(got, want)


def test_record_all_is_record_per_element():
    errs = [0.5, float("nan"), 3.0, 0.25, 2.0]
    one = SuiteResult("r", 1.0)
    for index, err in enumerate(errs):
        one.record(err, f"at {index}")
    many = SuiteResult("r", 1.0)
    many.record_all(np.array(errs), lambda index: f"at {index}")
    assert_same(many, one)
    assert math.isnan(many.max_err)
    assert many.failures == ["at 1: err=nan", "at 2: err=3.000e+00", "at 4: err=2.000e+00"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("tolerance", [0.0, 1e-12])
def test_non_finite_errors_fail(bad, tolerance):
    one = SuiteResult("r", tolerance)
    one.record(0.0, "fine")
    one.record(bad, "bad")
    many = SuiteResult("r", tolerance)
    many.record_all([0.0, bad], lambda index: "fine" if index == 0 else "bad")
    for res in (one, many):
        assert not res.passed
        assert res.checks == 2
        assert res.failures == [f"bad: err={bad:.3e}"]
    assert_same(many, one)
    if bad > 0:
        assert one.max_err == math.inf
    elif math.isnan(bad):
        assert math.isnan(one.max_err)


def test_nan_max_err_stays_once_seen():
    one = SuiteResult("r", 1.0)
    for err in (0.5, float("nan"), 3.0, float("inf")):
        one.record(err, "x")
    many = SuiteResult("r", 1.0)
    many.record_all([0.5], lambda index: "x")
    many.record_all([float("nan"), 3.0], lambda index: "x")
    many.record_all([float("inf")], lambda index: "x")
    assert math.isnan(one.max_err)
    assert_same(many, one)


def test_check_all_is_check_per_element():
    ok = np.array([[True, False], [True, False]])
    one = SuiteResult("c", 0.0)
    for index, value in enumerate(ok.ravel()):
        one.check(bool(value), f"at {index}")
    many = SuiteResult("c", 0.0)
    many.check_all(ok, lambda index: f"at {index}")
    assert_same(many, one)
    assert many.failures == ["at 1", "at 3"]
    empty = SuiteResult("c", 0.0)
    empty.check_all(np.zeros((0, 4), dtype=bool), lambda index: f"at {index}")
    assert (empty.checks, empty.max_err, empty.failures) == (0, 0.0, [])


def test_margin_is_max_err_over_tolerance():
    res = SuiteResult("m", 1e-10)
    res.record(2.5e-13, "x")
    assert res.margin == pytest.approx(2.5e-3, rel=1e-12)
    assert SuiteResult("exact", 0.0).margin is None


def test_verify_quick_lines_and_total(capsys, monkeypatch):
    results = []

    def run_and_keep(level):
        results.extend(verify.run_suites(level))
        return results

    monkeypatch.setattr(cli, "run_suites", run_and_keep)
    assert cli.main(["verify", "--level", "quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(results) + 1 == 28
    line = re.compile(r"^PASS  .+  checks= *\d+  max_err=\d\.\d{3}e[+-]\d{2}  margin=(\S+) +(\d+\.\d{3})s$")
    for result, text in zip(results, lines):
        match = line.match(text)
        assert match, text
        margin = "-" if result.tolerance == 0.0 else f"{result.max_err / result.tolerance:.3e}"
        assert match.group(1) == margin
        assert match.group(2) == f"{result.seconds:.3f}"
    assert sum(result.checks for result in results) == 275801
    assert lines[-1].startswith("27/27 suites passed, 275801 checks, ")


def reference_resistance_oracle(level):
    res = SuiteResult("resistance closed form vs pseudoinverse oracle", 1e-10)
    n_max = 40 if level == "full" else 20
    for family in ("path", "cycle"):
        start = 2 if family == "path" else 3
        for n in range(start, n_max + 1):
            g = GraphSpec(family, n)
            for p in g.pairs():
                err = abs(verify.resistance(g, p.i, p.j) - verify.resistance_oracle(g, p.i, p.j))
                res.record(err, f"{family} n={n} pair=({p.i},{p.j})")
    return res


def reference_series_vs_inverse(level):
    res = SuiteResult("katz series oracle vs inverse oracle", 1e-11)
    if level == "full":
        sizes, grids = range(5, 41), katz_grid
    else:
        sizes = (5, 12, 25)
        grids = lambda g: [a for a in (0.1, 0.3, 0.46) if a < 1.0 / verify.spectral_radius(g)]
    for family in ("path", "cycle"):
        for n in sizes:
            g = GraphSpec(family, n)
            for alpha in grids(g):
                series = katz.katz_oracle_series(g, alpha)
                inverse = katz.katz_oracle_inverse(g, alpha)
                res.record(float(np.abs(series - inverse).max()), f"{family} n={n} alpha={alpha}")
    return res


@pytest.mark.parametrize(
    "suite, reference, level",
    [
        (verify.suite_resistance_oracle, reference_resistance_oracle, "quick"),
        (verify.suite_resistance_oracle, reference_resistance_oracle, "full"),
        (verify.suite_series_vs_inverse, reference_series_vs_inverse, "quick"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_array_oracle_suite_matches_per_call_loop(suite, reference, level):
    want = reference(level)
    got = suite(level)
    assert want.passed
    assert_same(got, want)


def _asymmetric_oracle(original):
    """resistance_oracle that reads the pairs (1, 3) of the 5-path and (2, 4) of the 7-cycle 1e-6 high."""

    def asymmetric(g, i, j):
        value = original(g, i, j)
        bad = {("path", 5): (1, 3), ("cycle", 7): (2, 4)}.get((g.family, g.n))
        if bad is None:
            return value
        if isinstance(value, np.ndarray):
            value = value.copy()
            value[(i == bad[0]) & (j == bad[1])] += 1e-6
            return value
        return value + 1e-6 if (i, j) == bad else value

    return asymmetric


def test_resistance_oracle_suite_matches_per_call_loop_under_fault(monkeypatch):
    monkeypatch.setattr(verify, "resistance_oracle", _asymmetric_oracle(verify.resistance_oracle))
    want = reference_resistance_oracle("quick")
    got = verify.suite_resistance_oracle("quick")
    assert [failure.split(":")[0] for failure in want.failures] == ["path n=5 pair=(1,3)", "cycle n=7 pair=(2,4)"]
    assert_same(got, want)


# (name, checks at quick, checks at full) of every suite, in ALL_SUITES order
SUITE_CHECKS = [
    ("d recursion matches exact closed sum", 1581, 5151),
    ("d splitting identity", 22185, 90270),
    ("d product identity", 23715, 93330),
    ("d monotone bounds", 5049, 5049),
    ("d special values at the probe points", 181, 601),
    ("d ratio limit constant", 9, 9),
    ("d vanishing power ratio bound", 10200, 10200),
    ("d golden-ratio lower bound", 4400, 4400),
    ("path determinant identity", 524, 1024),
    ("cycle determinant identity", 432, 912),
    ("cycle determinant parity factorization", 1862, 4802),
    ("spectral radius closed form vs power iteration", 11, 11),
    ("resistance closed form vs pseudoinverse oracle", 2659, 21319),
    ("metric symmetry and triangle inequality", 93508, 93508),
    ("katz closed form vs inverse oracle", 1201, 1936),
    ("katz series oracle vs inverse oracle", 18, 1774),
    ("katz decreasing in path distance from an endpoint", 1428, 1428),
    ("katz non-decreasing under centered pair shifts", 98175, 98175),
    ("cycle katz depends only on arc length", 663, 663),
    ("cycle pair-ranking agreement across all metrics", 768, 1248),
    ("path ranking agreement below the golden bound", 616, 616),
    ("path ranking inversion at alpha = 0.46", 3, 3),
    ("gap polynomial sign equivalence", 4131, 4131),
    ("gap polynomial values at the probe points", 423, 423),
    ("cycle arc-class separation margin", 1960, 4410),
    ("cut-off roots: bracket, monotonicity", 63, 113),
    ("katz entries converge to their limits", 36, 36),
]


@pytest.mark.parametrize("level", ["quick", "full"])
def test_every_suite_keeps_its_checks_and_passes(level):
    column = 1 if level == "quick" else 2
    got = [(result.name, result.checks, result.passed) for result in verify.run_suites(level)]
    assert got == [(row[0], row[column], True) for row in SUITE_CHECKS]
    assert sum(row[column] for row in SUITE_CHECKS) == {"quick": 275801, "full": 445542}[level]
