import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from katzlab import dpoly, katz, ordering
from katzlab.graphs import AdmissibilityError, GraphSpec, graph_distance, spectral_radius
from katzlab.verify import katz_grid


def test_path_worked_values():
    # n = 3, alpha = 0.3: d = [1, 1, 0.91, 0.82]
    assert katz.katz_path(3, 1, 2, 0.3) == pytest.approx(0.3 / 0.82, rel=1e-15)
    assert katz.katz_path(3, 1, 1, 0.3) == pytest.approx(0.91 / 0.82 - 1.0, rel=1e-13)


def test_cycle_worked_value():
    # n = 5, alpha = 0.2: numerator 0.2 * 0.92 + 0.0016, denominator 0.80736
    assert katz.katz_cycle(5, 1, 2, 0.2) == pytest.approx(0.1856 / 0.80736, rel=1e-15)


def test_two_vertex_path_by_hand():
    # (I - alpha A)^(-1) - I for a single edge: off-diagonal alpha/(1 - alpha^2)
    got = katz.katz_oracle_inverse(GraphSpec.path(2), 0.4)
    assert got[0, 1] == pytest.approx(0.4 / 0.84, rel=1e-14)
    assert got[0, 0] == pytest.approx(1.0 / 0.84 - 1.0, rel=1e-12)


def test_argument_order_is_symmetric():
    assert katz.katz_path(9, 7, 3, 0.3) == katz.katz_path(9, 3, 7, 0.3)
    assert katz.katz_cycle(9, 7, 3, 0.3) == katz.katz_cycle(9, 3, 7, 0.3)


def test_cycle_arc_symmetry():
    # both pairs sit at arc length 7 on the 15-cycle
    assert katz.katz_cycle(15, 1, 8, 0.3) == katz.katz_cycle(15, 1, 9, 0.3)


@pytest.mark.parametrize("family, n", [("path", 7), ("path", 12), ("cycle", 8), ("cycle", 13)])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
def test_closed_forms_match_inverse(family, n, alpha):
    g = GraphSpec(family, n)
    oracle = katz.katz_oracle_inverse(g, alpha)
    if family == "path":
        for p in g.pairs():
            assert katz.katz_path(n, p.i, p.j, alpha) == pytest.approx(
                oracle[p.i - 1, p.j - 1], rel=1e-11
            )
    else:
        for p in g.pairs():
            assert katz.katz_cycle(n, p.i, p.j, alpha) == pytest.approx(
                oracle[p.i - 1, p.j - 1], rel=1e-11
            )


def test_small_cycles_and_diagonal_match_oracle():
    for n in (3, 4):
        g = GraphSpec.cycle(n)
        oracle = katz.katz_oracle_inverse(g, 0.3)
        for p in g.pairs():
            assert katz.katz_cycle(n, p.i, p.j, 0.3) == pytest.approx(oracle[p.i - 1, p.j - 1], rel=1e-13)
    diag = katz.katz_cycle(7, 2, 2, 0.3)
    assert diag == pytest.approx(katz.katz_oracle_inverse(GraphSpec.cycle(7), 0.3)[1, 1], rel=1e-12)


def test_small_cycles_by_hand():
    # (I - alpha A)^(-1) - I worked out by hand for the triangle and the square
    a = Fraction(1, 5)
    c3_off = a / ((1 + a) * (1 - 2 * a))
    c3_diag = 2 * a * a / ((1 + a) * (1 - 2 * a))
    c4_adjacent = a / (1 - 4 * a * a)
    c4_opposite = 2 * a * a / (1 - 4 * a * a)
    want = {
        (3, 1, 2): c3_off,
        (3, 1, 1): c3_diag,
        (4, 1, 2): c4_adjacent,
        (4, 1, 3): c4_opposite,
        (4, 1, 1): c4_opposite,
    }
    for (n, i, j), value in want.items():
        assert katz.katz_cycle(n, i, j, 0.2) == pytest.approx(float(value), rel=1e-14, abs=0.0)
        assert katz.katz_cycle_matrix(n, 0.2)[i - 1, j - 1] == pytest.approx(float(value), rel=1e-14, abs=0.0)


def test_large_cycle_diagonal_is_closed_form():
    # beyond the dense-routine cap: d_{n-1}/D_n - 1, against the same expression in Fractions
    n, alpha = 600, 0.3
    a = Fraction(alpha)
    seq = dpoly.d_sequence_exact(n - 1, a)
    want = seq[n - 1] / (seq[n - 1] - 2 * a**n - 2 * a * a * seq[n - 2]) - 1
    got = katz.katz_cycle(n, 1, 1, alpha)
    assert math.isfinite(got)
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [3, 10, 600])
@pytest.mark.parametrize("alpha", [1e-5, 1e-3, 0.3, 0.49])
def test_cycle_diagonal_keeps_relative_accuracy_at_small_alpha(n, alpha):
    # d_{n-1}/D_n - 1 in Fractions; the float routes must not lose digits to
    # a ratio near 1 minus 1 as alpha -> 0
    a = Fraction(alpha)
    seq = dpoly.d_sequence_exact(n - 1, a)
    want = seq[n - 1] / (seq[n - 1] - 2 * a**n - 2 * a * a * seq[n - 2]) - 1
    diagonal = set(np.diag(katz.katz_cycle_matrix(n, alpha)).tolist())
    for got in diagonal | {katz.katz_cycle(n, 1, 1, alpha)}:
        assert abs(Fraction(got) - want) <= Fraction(1, 10**14) * want


def test_path_matrix_matches_scalar_route():
    n, alpha = 9, 0.35
    mat = katz.katz_path_matrix(n, alpha)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert mat[i - 1, j - 1] == katz.katz_path(n, i, j, alpha)


def scalar_rows(route, n, alpha, rows):
    """route(n, i, j, alpha) at every j of each row i, as float64 bits."""
    return np.array([[route(n, i, j, alpha) for j in range(1, n + 1)] for i in rows]).view(np.int64)


@pytest.mark.parametrize("n", [*range(2, 81, 3), 80, 250, 401])
def test_path_matrix_is_the_per_entry_route_bit_for_bit(n):
    # katz_path at every entry of rows 1, n//2 + 1 and n and along the
    # diagonal (every entry for n <= 10)
    rows = sorted({1, n // 2 + 1, n}) if n > 10 else range(1, n + 1)
    for alpha in katz_grid(GraphSpec.path(n)) + [0.02, 0.49]:
        got = katz.katz_path_matrix(n, alpha)
        assert np.array_equal(got[np.array(rows) - 1].view(np.int64), scalar_rows(katz.katz_path, n, alpha, rows))
        diagonal = [katz.katz_path(n, i, i, alpha) for i in range(1, n + 1)]
        assert np.array_equal(np.diag(got).view(np.int64), np.array(diagonal).view(np.int64)), alpha


@pytest.mark.parametrize("alpha", [1e-5, 1e-3, 0.3, 0.46])
@pytest.mark.parametrize("n", [2, 10, 40])
def test_path_diagonal_keeps_relative_accuracy(n, alpha):
    # alpha^2 (d_{i-1} d_{n-i-1} + d_{i-2} d_{n-i}) / d_n has no cancellation;
    # d_{i-1} d_{n-i} / d_n - 1 was 8.2e-8 relative off at (10, 3, 3, 1e-5)
    for i in sorted({1, 3, n // 2, n} & set(range(1, n + 1))):
        exact = katz.katz_path_exact(n, i, i, alpha)
        assert abs(Fraction(katz.katz_path(n, i, i, alpha)) - exact) <= Fraction(1e-15) * exact, i


def test_cycle_matrix_matches_scalar_route_off_diagonal():
    n, alpha = 11, 0.3
    mat = katz.katz_cycle_matrix(n, alpha)
    oracle = katz.katz_oracle_inverse(GraphSpec.cycle(n), alpha)
    for v in range(1, n + 1):
        assert mat[v - 1, v - 1] == katz.katz_cycle(n, v, v, alpha)
        assert mat[v - 1, v - 1] == pytest.approx(oracle[v - 1, v - 1], rel=1e-12)
    g = GraphSpec.cycle(n)
    for p in g.pairs():
        assert mat[p.i - 1, p.j - 1] == katz.katz_cycle(n, p.i, p.j, alpha)


@pytest.mark.parametrize("alpha", [0.02, 0.2, 0.3, 0.46, 0.49])
def test_cycle_matrix_is_the_scalar_route_on_a_grid(alpha):
    # The matrix holds one value per arc class, and that value is the scalar
    # route bit for bit.
    for n in range(3, 41):
        mat = katz.katz_cycle_matrix(n, alpha)
        idx = np.arange(n)
        first = mat[0]
        assert np.array_equal(mat, first[(idx[None, :] - idx[:, None]) % n])
        assert np.array_equal(first[1:], first[:0:-1])
        scalar = [katz.katz_cycle(n, 1, 1 + k, alpha) for k in range(n)]
        assert np.array_equal(first.view(np.int64), np.array(scalar).view(np.int64))


@pytest.mark.parametrize("n", [*range(3, 81), 250, 401])
def test_cycle_matrix_is_the_per_entry_route_bit_for_bit(n):
    # katz_cycle at every entry of rows 1 and n//2 + 1 (every row for
    # n <= 10); every other row must be a rotation of row 1.
    rows = [1, n // 2 + 1] if n > 10 else range(1, n + 1)
    for alpha in katz_grid(GraphSpec.cycle(n)) + [0.02, 0.49]:
        got = katz.katz_cycle_matrix(n, alpha)
        assert got.flags.c_contiguous and got.flags.writeable
        want = scalar_rows(katz.katz_cycle, n, alpha, rows)
        assert np.array_equal(got[np.array(rows) - 1].view(np.int64), want), alpha
        idx = np.arange(n)
        assert np.array_equal(got.view(np.int64), want[0][(idx[None, :] - idx[:, None]) % n]), alpha


def test_cycle_matrix_peak_memory_is_its_output():
    n = 1000
    tracemalloc.start()
    try:
        katz.katz_cycle_matrix(n, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n * n


@pytest.mark.parametrize("build", [katz.katz_path_matrix, katz.katz_cycle_matrix])
def test_matrix_size_cap_is_checked_before_allocation(build):
    assert issubclass(katz.MatrixSizeError, ValueError)
    tracemalloc.start()
    try:
        with pytest.raises(katz.MatrixSizeError, match="MATRIX_MAX_N"):
            build(katz.MATRIX_MAX_N + 1, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


MATRICES = {"path": katz.katz_path_matrix, "cycle": katz.katz_cycle_matrix}


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family, n", [("path", n) for n in (*range(2, 81, 3), 250, 401)]
                         + [("cycle", n) for n in (*range(3, 81, 3), 250, 401)])
def test_each_stack_member_is_the_float_call_bit_for_bit(family, n):
    alphas = katz_grid(GraphSpec(family, n)) + [0.02, 0.49]
    stack = MATRICES[family](n, alphas)
    assert stack.shape == (len(alphas), n, n)
    for alpha, member in zip(alphas, stack):
        assert np.array_equal(member.view(np.int64), MATRICES[family](n, alpha).view(np.int64)), alpha


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_stack_shapes(family):
    build = MATRICES[family]
    assert build(7, []).shape == (0, 7, 7)
    assert build(7, np.array([])).shape == (0, 7, 7)
    one = build(7, [0.3])
    assert one.shape == (1, 7, 7)
    assert np.array_equal(one[0], build(7, 0.3))
    assert build(7, 0.3).shape == (7, 7)
    with pytest.raises(ValueError, match="1-D"):
        build(7, [[0.3]])


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_an_inadmissible_alpha_anywhere_in_a_stack_fails_before_allocation(family):
    build = MATRICES[family]
    bad = 0.6 if family == "path" else 0.5  # 1/rho is just above 1/2 on a path
    for alphas in ([bad, 0.1, 0.2], [0.1, bad, 0.2], [0.1, 0.2, bad], [0.1, 0.0, 0.2]):
        peak = traced_peak(lambda: pytest.raises(AdmissibilityError, build, 2000, alphas))
        assert peak < 2**20, alphas


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_stack_size_cap_is_checked_before_allocation(family):
    build = MATRICES[family]
    n = katz.MATRIX_MAX_N // 2
    katz.require_matrix_size(n, 4)  # 4 n^2 = MATRIX_MAX_N^2 is allowed
    with pytest.raises(katz.MatrixSizeError, match=r"5 matrices of n = 2048 exceed .*MATRIX_MAX_N"):
        katz.require_matrix_size(n, 5)
    peak = traced_peak(lambda: pytest.raises(katz.MatrixSizeError, build, n, [0.1, 0.2, 0.3, 0.4, 0.45]))
    assert peak < 2**20


def test_stacked_cycle_peak_memory_is_at_most_twice_its_output():
    n, alphas = 500, [0.1, 0.2, 0.3, 0.4]
    assert traced_peak(lambda: katz.katz_cycle_matrix(n, alphas)) <= 2 * 8 * len(alphas) * n * n


def test_path_matrix_peak_memory_is_its_output():
    # the output and O(n) rows, no n x n temporary
    n = 2000
    assert traced_peak(lambda: katz.katz_path_matrix(n, 0.3)) <= 8 * n * n + 2**20


PAIR_GRIDS = [("path", 2), ("path", 9), ("path", 64), ("cycle", 3), ("cycle", 4), ("cycle", 9), ("cycle", 64)]


@pytest.mark.parametrize("family, n", PAIR_GRIDS)
def test_pair_entries_and_arcs_are_the_scalar_route(family, n):
    g = GraphSpec(family, n)
    i, j = (labels + 1 for labels in np.triu_indices(n, k=1))
    route = katz.katz_path if g.is_path else katz.katz_cycle
    for alpha in katz_grid(g) + [0.02, 0.49]:
        want = [route(n, a, b, alpha) for a, b in zip(i.tolist(), j.tolist())]
        scores = katz.katz_pair_entries(g, alpha, i, j)
        assert np.array_equal(scores.view(np.int64), np.array(want).view(np.int64)), alpha
        if not g.is_path:
            # one pair per arc length k = 1..n//2
            arcs = katz.katz_pair_entries(g, alpha, np.ones(n // 2, dtype=int), np.arange(2, n // 2 + 2))
            want = [katz.katz_cycle(n, 1, 1 + k, alpha) for k in range(1, n // 2 + 1)]
            assert np.array_equal(arcs.view(np.int64), np.array(want).view(np.int64)), alpha


@pytest.mark.parametrize("family, n", PAIR_GRIDS)
def test_pair_entries_at_a_sequence_are_the_one_alpha_calls(family, n):
    g = GraphSpec(family, n)
    i, j = (labels + 1 for labels in np.triu_indices(n, k=1))
    alphas = katz_grid(g) + [0.02, 0.49]
    rows = katz.katz_pair_entries(g, alphas, i, j)
    assert rows.shape == (len(alphas), len(i))
    for alpha, row in zip(alphas, rows):
        assert np.array_equal(row.view(np.int64), katz.katz_pair_entries(g, alpha, i, j).view(np.int64)), alpha
    assert np.array_equal(katz.katz_pair_entries(g, np.array(alphas), i, j), rows)
    assert katz.katz_pair_entries(g, [], i, j).shape == (0, len(i))
    with pytest.raises(ValueError, match="1-D"):
        katz.katz_pair_entries(g, [alphas], i, j)


BIT_GRAPHS = [GraphSpec.path(n) for n in (*range(2, 8), 10, 57, 100, 250, 401)] + [
    GraphSpec.cycle(n) for n in (3, 4, 5, 9, 100, 401)
]
BIT_ALPHAS = (1e-6, 0.02, 0.1, 0.3, 1 / math.sqrt(5), 0.46, 0.499, 0.52, 0.55)


@pytest.mark.parametrize("g", BIT_GRAPHS, ids=lambda g: f"{g.family}{g.n}")
def test_entries_equal_in_theory_are_equal_in_bits(g):
    # score_classes merges scores within a relative TIE_TOL, so pairs that a
    # symmetry of the graph maps onto each other must tie; they do so
    # exactly, in every bit
    n = g.n
    i, j = (labels + 1 for labels in np.triu_indices(n, k=1))
    for alpha in [a for a in BIT_ALPHAS if a < 1.0 / spectral_radius(g)]:
        entries = katz.katz_pair_entries(g, alpha, i, j).view(np.int64)
        if g.is_path:
            # reversing the path maps pair (i, j) to (n + 1 - j, n + 1 - i)
            mirrored = katz.katz_pair_entries(g, alpha, n + 1 - j, n + 1 - i).view(np.int64)
            assert np.array_equal(entries, mirrored), alpha
            matrix = katz.katz_path_matrix(n, alpha).view(np.int64)
            assert np.array_equal(matrix, matrix.T), alpha
            assert np.array_equal(matrix, matrix[::-1, ::-1]), alpha
        else:
            # every pair is the pair (1, 1 + k) of its arc k
            arc = np.minimum(j - i, n - (j - i))
            by_arc = katz.katz_pair_entries(g, alpha, np.ones(n // 2, dtype=np.int64), np.arange(2, n // 2 + 2))
            assert np.array_equal(entries, by_arc.view(np.int64)[arc - 1]), alpha
            matrix = katz.katz_cycle_matrix(n, alpha).view(np.int64)
            assert np.array_equal(matrix[i - 1, j - 1], entries), alpha
            assert np.array_equal(matrix[j - 1, i - 1], entries), alpha


def test_an_inadmissible_alpha_anywhere_fails_before_a_table_is_built(monkeypatch):
    for name in ("_path_rows", "_cycle_arcs"):
        monkeypatch.setattr(katz, name, lambda *args: pytest.fail("table built"))
    i, j = np.array([1, 2]), np.array([3, 8])
    for g, bad in ((GraphSpec.cycle(8), 0.5), (GraphSpec.path(8), 0.6), (GraphSpec.path(8), 0.0)):
        for alphas in ([bad, 0.1, 0.2], [0.1, bad, 0.2], [0.1, 0.2, bad]):
            with pytest.raises(AdmissibilityError):
                katz.katz_pair_entries(g, alphas, i, j)


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_pair_entries_take_one_admissible_alpha_and_pairs_i_below_j(family):
    g = GraphSpec(family, 8)
    i, j = np.array([1, 2]), np.array([3, 8])
    with pytest.raises(AdmissibilityError):
        katz.katz_pair_entries(g, 0.6, i, j)
    for bad_i, bad_j in ((j, i), (i, j + 1), (i - 1, j), (i, i), (j.astype(np.uint8), i.astype(np.uint8))):
        with pytest.raises(ValueError, match="1 <= i < j <= 8"):
            katz.katz_pair_entries(g, 0.3, bad_i, bad_j)
    assert katz.katz_pair_entries(g, 0.3, i[:0], j[:0]).shape == (0,)
    # a bool is not vertex 1, nor a float a vertex
    for bad_i, bad_j in ((np.array([True]), np.array([2])), (i, j.astype(float)), (i + 0.5, j)):
        with pytest.raises(TypeError, match="vertex labels must be integers"):
            katz.katz_pair_entries(g, 0.3, bad_i, bad_j)
    # lists are not label arrays, whatever the alpha
    for alpha in (0.3, 0.6):
        with pytest.raises(TypeError, match="vertex labels must be numpy arrays"):
            katz.katz_pair_entries(g, alpha, [1, 2], [3, 4])
        with pytest.raises(TypeError, match="vertex labels must be numpy arrays"):
            katz.katz_pair_entries(g, alpha, i, [3, 8])


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_pair_entries_refuse_labels_that_are_not_1d(monkeypatch, family):
    g = GraphSpec(family, 8)
    # 0-d labels, and 2-D labels that broadcast to the pairs (1, 3), (1, 5), (2, 3) and (2, 5)
    labels = [
        (np.array(1), np.array(3)),
        (np.array([[1], [2]]), np.array([[3, 5]])),
        (np.array([1, 2]), np.array([[3], [5]])),
    ]
    with monkeypatch.context() as mp:
        for name in ("_path_rows", "_cycle_arcs"):
            mp.setattr(katz, name, lambda *args: pytest.fail("table built"))
        for i, j in labels:
            for alpha in (0.3, [0.3, 0.2]):
                with pytest.raises(ValueError, match=re.escape(f"1-D arrays, got shapes {i.shape} and {j.shape}")):
                    katz.katz_pair_entries(g, alpha, i, j)
    # two 1-D arrays still broadcast: (1,) with (3,) is the pairs (1, 3), (1, 5) and (1, 8)
    entry = katz.katz_path if g.is_path else katz.katz_cycle
    rows = katz.katz_pair_entries(g, [0.3, 0.2], np.array([1]), np.array([3, 5, 8]))
    assert rows.shape == (2, 3)
    for row, alpha in zip(rows.tolist(), (0.3, 0.2)):
        assert row == [entry(8, 1, j, alpha) for j in (3, 5, 8)]


def test_series_oracle_matches_inverse():
    for g in (GraphSpec.path(6), GraphSpec.cycle(7)):
        a = katz.katz_oracle_series(g, 0.3)
        b = katz.katz_oracle_inverse(g, 0.3)
        assert np.max(np.abs(a - b)) < 1e-11


def test_series_oracle_diverges_near_the_boundary():
    g = GraphSpec.path(3)  # 1/rho is about 0.707
    with pytest.raises(katz.SeriesDivergenceError):
        katz.katz_oracle_series(g, 0.70710678)


def _series_terms(ratio, tol):
    """The first power of two T with ratio^(T+1) / (1 - ratio) < tol, and that tail bound."""
    terms = 1
    while ratio ** (terms + 1) / (1.0 - ratio) >= tol:
        terms *= 2
    return terms, ratio ** (terms + 1) / (1.0 - ratio)


@pytest.mark.parametrize("family", ["path", "cycle"])
@pytest.mark.parametrize("tol", [katz.SERIES_TOL])
def test_series_oracle_is_within_its_tail_bound(family, tol):
    # allowance for rounding in both oracles: n eps (1 + max|K|) / (1 - alpha rho),
    # the forward error of a solve with condition number about 1 / (1 - alpha rho)
    eps = np.finfo(float).eps
    for n in (5, 12, 25, 40):
        g = GraphSpec(family, n)
        for alpha in (0.1, 0.3, 0.46, 0.49):
            ratio = alpha * spectral_radius(g)
            _, tail = _series_terms(ratio, tol)
            assert tail < tol
            inverse = katz.katz_oracle_inverse(g, alpha)
            allowance = n * eps * (1.0 + np.abs(inverse).max()) / (1.0 - ratio)
            err = np.abs(katz.katz_oracle_series(g, alpha) - inverse).max()
            assert err <= tail + allowance, (n, alpha)


@pytest.mark.parametrize("g", [GraphSpec.path(9), GraphSpec.cycle(12)], ids=["path9", "cycle12"])
def test_series_oracle_stack_is_the_one_alpha_calls(g):
    # alphas out of order, and with different term counts
    alphas = [0.46, 0.05, 0.3, 0.49, 0.3]
    stack = katz.katz_oracle_series(g, alphas)
    assert stack.shape == (5, g.n, g.n)
    terms = [_series_terms(alpha * spectral_radius(g), katz.SERIES_TOL)[0] for alpha in alphas]
    assert len(set(terms)) >= 3
    for member, alpha in zip(stack, alphas):
        assert np.array_equal(member, katz.katz_oracle_series(g, alpha))
    assert katz.katz_oracle_series(g, []).shape == (0, g.n, g.n)
    assert katz.katz_oracle_series(g, np.array([0.3])).shape == (1, g.n, g.n)


def test_series_oracle_sums_the_terms_of_its_bound():
    # T = 32 terms at alpha rho = 0.25: the doubling sum is the plain sum
    # of the first 32 terms, to rounding
    g = GraphSpec.cycle(6)
    terms, _ = _series_terms(0.25, katz.SERIES_TOL)
    assert terms == 32
    a = 0.125 * g.adjacency()
    power, plain = np.eye(6), np.zeros((6, 6))
    for _ in range(terms):
        power = power @ a
        plain += power
    assert np.allclose(katz.katz_oracle_series(g, 0.125), plain, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.70710678, [0.3, 0.70710678]], ids=["one", "stack"])
def test_series_divergence_is_raised_before_any_matrix_work(alpha, monkeypatch):
    g = GraphSpec.path(3)  # 1/rho is about 0.707
    monkeypatch.setattr(GraphSpec, "adjacency", lambda self: pytest.fail("adjacency built"))
    with pytest.raises(katz.SeriesDivergenceError, match=str(katz.SERIES_ITERATION_CAP)):
        katz.katz_oracle_series(g, alpha)


def test_series_term_count_stops_at_the_cap():
    # on a cycle alpha rho = 2 alpha: 2^16 terms still run, 2^17 exceed the cap
    g = GraphSpec.cycle(4)
    assert 2**16 <= katz.SERIES_ITERATION_CAP < 2**17
    terms, tail = _series_terms(2 * 0.4997, katz.SERIES_TOL)
    assert terms == 2**16
    assert _series_terms(2 * 0.49975, katz.SERIES_TOL)[0] == 2**17
    inverse = katz.katz_oracle_inverse(g, 0.4997)
    # rounding allowance as in test_series_oracle_is_within_its_tail_bound
    allowance = 4 * np.finfo(float).eps * (1.0 + np.abs(inverse).max()) / (1.0 - 2 * 0.4997)
    assert np.abs(katz.katz_oracle_series(g, 0.4997) - inverse).max() <= tail + allowance
    with pytest.raises(katz.SeriesDivergenceError):
        katz.katz_oracle_series(g, 0.49975)


def test_admissibility_enforced():
    with pytest.raises(AdmissibilityError):
        katz.katz_path(10, 1, 2, 0.53)
    with pytest.raises(AdmissibilityError):
        katz.katz_cycle(8, 1, 2, 0.5)
    # short path: 1/rho is about 0.577, so 0.55 is admissible
    assert katz.katz_path(5, 1, 2, 0.55) > 0.0


def test_vertex_validation():
    with pytest.raises(ValueError):
        katz.katz_path(6, 0, 2, 0.3)
    with pytest.raises(ValueError):
        katz.katz_cycle(6, 1, 7, 0.3)
    with pytest.raises(TypeError):
        katz.katz_path(6, 1.0, 2, 0.3)


def test_exact_path_entry():
    value = katz.katz_path_exact(6, 1, 2, Fraction(1, 5))
    assert isinstance(value, Fraction)
    assert value == Fraction(2755, 12649)
    assert float(value) == pytest.approx(katz.katz_path(6, 1, 2, 0.2), abs=1e-15)


def test_exact_cycle_entry():
    value = katz.katz_cycle_exact(7, 1, 3, Fraction(1, 4))
    assert value == Fraction(6, 71)
    assert float(value) == pytest.approx(katz.katz_cycle(7, 1, 3, 0.25), abs=1e-15)


def list_route_path_exact(n, pairs, alpha):
    """katz_path_exact at each (i, j) by the list route: katz's entry formulas on a d_sequence_exact list.

    The exact routes evaluate integer forms from the Lucas sequence; this
    reference runs the d-recursion in Fractions and reads its terms into
    the formulas katz_path evaluates in floats, one list per call.
    """
    a = Fraction(alpha)
    seq = dpoly.d_sequence_exact(n, a)
    entries = []
    for i, j in pairs:
        if i == j:
            before = seq[i - 2] if i > 1 else 0
            after = seq[n - i - 1] if i < n else 0
            entries.append(katz._path_diagonal(before, seq[i - 1], after, seq[n - i], seq[n], a))
        else:
            entries.append(katz._path_off_diagonal(a ** (j - i), seq[i - 1], seq[n - j], seq[n]))
    return entries


def list_route_cycle_exact(n, arcs, alpha):
    """katz_cycle_exact at each arc length by the list route, as list_route_path_exact."""
    a = Fraction(alpha)
    seq = dpoly.d_sequence_exact(n - 1, a)
    d_before, power = seq[n - 2], a**n
    denominator = dpoly._cycle_denominator(d_before, seq[n - 1], power, a)
    entries = []
    for k in arcs:
        if k:
            numerator = katz._cycle_numerator(seq[k - 1], seq[n - k - 1], a**k, a ** (n - k))
        else:
            numerator = katz._cycle_diagonal(d_before, power, a)
        entries.append(numerator / denominator)
    return entries


# one per size in the sweeps below, cycling, so every alpha meets many sizes
EXACT_ALPHAS = [Fraction(1, 5), 1e-5, 0.1, 0.3, 0.45, 0.499]


def test_exact_path_is_the_list_route_at_every_pair():
    for n in range(2, 41):
        alpha = EXACT_ALPHAS[n % len(EXACT_ALPHAS)]
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        got = [katz.katz_path_exact(n, i, j, alpha) for i, j in pairs]
        assert got == list_route_path_exact(n, pairs, alpha), (n, alpha)


def test_exact_cycle_is_the_list_route_at_every_arc():
    for n in range(3, 41):
        alpha = EXACT_ALPHAS[n % len(EXACT_ALPHAS)]
        arcs = range(n // 2 + 1)  # the diagonal is arc 0
        got = [katz.katz_cycle_exact(n, 1, 1 + k, alpha) for k in arcs]
        assert got == list_route_cycle_exact(n, arcs, alpha), (n, alpha)


@pytest.mark.parametrize("alpha", [Fraction(1, 5), 0.499], ids=str)
def test_exact_routes_are_the_list_route_at_600(alpha):
    n = 600
    pairs = [(1, 1), (1, 2), (1, n), (2, 599), (300, 300), (300, 301), (n, n)]
    assert [katz.katz_path_exact(n, i, j, alpha) for i, j in pairs] == list_route_path_exact(n, pairs, alpha)
    arcs = [0, 1, 2, 299, 300]
    assert [katz.katz_cycle_exact(n, 1, 1 + k, alpha) for k in arcs] == list_route_cycle_exact(n, arcs, alpha)


def three_run_path_parts(n, i, j, alpha):
    """_path_exact_parts as it was before the addition law: one doubling each at i, n + 1 - j and n + 1."""
    i, j = katz._checked_pair(GraphSpec.path(n), i, j)
    p, q = katz._exact_alpha(alpha)
    p2 = p * p
    head, tail, whole = (dpoly._lucas(k, p2, q)[0] for k in (i, n + 1 - j, n + 1))
    if i == j:
        return q * head * tail - whole, whole
    return q * p ** (j - i) * head * tail, whole


def three_run_cycle_parts(n, i, j, alpha):
    """_cycle_exact_parts as it was before the addition law: doublings at n - 1, n - k and k for arc k."""
    k = graph_distance(GraphSpec.cycle(n), i, j)
    p, q = katz._exact_alpha(alpha)
    p2 = p * p
    before, last = dpoly._lucas(n - 1, p2, q)
    power = p**n
    denominator = q * last - 2 * p2 * before - 2 * power
    if not k:
        return 2 * power + 2 * p2 * before, denominator
    long_arc = before if k == 1 else dpoly._lucas(n - k, p2, q)[0]
    short_arc = long_arc if 2 * k == n else dpoly._lucas(k, p2, q)[0]
    return q * (p**k * long_arc + p ** (n - k) * short_arc), denominator


PARTS_ALPHAS = [0.1, 0.3, 0.45, 0.46, 0.499, Fraction(2, 5), Fraction(1, 7), Fraction(1, 3)]


def test_exact_parts_are_the_three_run_integers_at_every_pair():
    # the same unreduced integers, not only the same Fractions: the limit
    # suite cross-multiplies them; half the alphas at each size, taking
    # turns, so every alpha meets every pair at 19 or 20 sizes
    for n in range(2, 41):
        for alpha in PARTS_ALPHAS[n % 2 :: 2]:
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
            got = [katz._path_exact_parts(n, i, j, alpha) for i, j in pairs]
            assert got == [three_run_path_parts(n, i, j, alpha) for i, j in pairs], (n, alpha)
            arcs = range(n // 2 + 1) if n >= 3 else ()
            got = [katz._cycle_exact_parts(n, 1, 1 + k, alpha) for k in arcs]
            assert got == [three_run_cycle_parts(n, 1, 1 + k, alpha) for k in arcs], (n, alpha)


@pytest.mark.parametrize("n", [64, 65, 100, 101, 321, 1000])
def test_exact_parts_are_the_three_run_integers_at_sampled_pairs(n):
    half = n // 2
    pairs = [(1, 1), (half, half), (n, n), (1, 2), (2, 5), (1, n), (half, half + 1), (n - 1, n)]
    arcs = [0, 1, 2, 3, half - 1, half]
    for alpha in PARTS_ALPHAS:
        for i, j in pairs:
            assert katz._path_exact_parts(n, i, j, alpha) == three_run_path_parts(n, i, j, alpha), (i, j, alpha)
        for k in arcs:
            assert katz._cycle_exact_parts(n, 1, 1 + k, alpha) == three_run_cycle_parts(n, 1, 1 + k, alpha), (k, alpha)


# alpha as doubles, weighted to the far ends of (0, 1/2) and to 1/sqrt5,
# and as Fractions whose denominators are no power of two
exact_alphas = st.one_of(
    st.sampled_from([1e-5, 1.0 / math.sqrt(5.0)]),
    st.integers(min_value=2, max_value=53).map(lambda k: 0.5 - 2.0**-k),
    st.floats(min_value=1e-5, max_value=0.5, exclude_max=True),
    st.sampled_from([3, 7, 10**30 + 1]).flatmap(
        lambda q: st.integers(min_value=1, max_value=(q - 1) // 2).map(lambda p: Fraction(p, q))
    ),
)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=60), exact_alphas)
@example(40, Fraction(5 * 10**29, 10**30 + 1))
@example(31, Fraction(1, 10**30 + 1))
@example(60, 0.5 - 2.0**-53)
def test_exact_entries_are_the_fraction_list_route(n, alpha):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    assert [katz.katz_path_exact(n, i, j, alpha) for i, j in pairs] == list_route_path_exact(n, pairs, alpha)
    arcs = range(n // 2 + 1)  # the diagonal is arc 0
    assert [katz.katz_cycle_exact(n, 1, 1 + k, alpha) for k in arcs] == list_route_cycle_exact(n, arcs, alpha)


@st.composite
def exact_entry_pairs(draw):
    """A family, two sizes, one pair that both have, and an alpha: the limit suite's comparisons and more."""
    family = draw(st.sampled_from(["path", "cycle"]))
    sizes = st.integers(min_value=2 if family == "path" else 3, max_value=400)
    n_a, n_b = draw(sizes), draw(sizes)
    i = draw(st.integers(min_value=1, max_value=min(n_a, n_b)))
    j = draw(st.integers(min_value=i, max_value=min(n_a, n_b)))
    return family, n_a, n_b, i, j, draw(exact_alphas)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(exact_entry_pairs())
@example(("path", 80, 160, 1, 2, 0.45))
@example(("cycle", 80, 160, 1, 3, 0.45))
@example(("path", 40, 40, 3, 3, Fraction(1, 3)))
def test_cross_multiplied_order_is_the_fraction_order(case):
    # the limit suite orders exact entries by a_num b_den < b_num a_den,
    # which is a < b only while both denominators are positive
    family, n_a, n_b, i, j, alpha = case
    parts, entry, three_run = {
        "path": (katz._path_exact_parts, katz.katz_path_exact, three_run_path_parts),
        "cycle": (katz._cycle_exact_parts, katz.katz_cycle_exact, three_run_cycle_parts),
    }[family]
    (a_num, a_den), (b_num, b_den) = parts(n_a, i, j, alpha), parts(n_b, i, j, alpha)
    assert [(a_num, a_den), (b_num, b_den)] == [three_run(n_a, i, j, alpha), three_run(n_b, i, j, alpha)]
    assert a_den > 0 and b_den > 0
    a, b = entry(n_a, i, j, alpha), entry(n_b, i, j, alpha)
    assert (a, b) == (Fraction(a_num, a_den), Fraction(b_num, b_den))
    cross = a_num * b_den - b_num * a_den
    assert (cross > 0) - (cross < 0) == (a > b) - (a < b)


@pytest.mark.parametrize(
    "family, i, j",
    [("path", 1, 2), ("path", 160, 160), ("cycle", 1, 1), ("cycle", 1, 2)],
    ids=["path off-diagonal", "path diagonal", "cycle arc 0", "cycle arc 1"],
)
def test_exact_entries_reduce_once_not_per_step(family, i, j, monkeypatch):
    # every Fraction operation reduces by math.gcd, about 970 times for
    # one of these entries at n = 320 when the d-terms ran in Fractions;
    # the entry is one Fraction of Lucas-sequence integers, reduced once
    calls = 0
    gcd = math.gcd

    def counting_gcd(*args):
        nonlocal calls
        calls += 1
        return gcd(*args)

    entry = katz.katz_path_exact if family == "path" else katz.katz_cycle_exact
    monkeypatch.setattr(math, "gcd", counting_gcd)
    value = entry(320, i, j, 0.46)
    monkeypatch.undo()
    assert calls <= 8
    if family == "path":
        assert [value] == list_route_path_exact(320, [(i, j)], 0.46)
    else:
        assert [value] == list_route_cycle_exact(320, [j - i], 0.46)


@pytest.fixture
def lucas_runs(monkeypatch):
    """The indices katz passes to _lucas, in order, while the fixture is live."""
    runs = []
    lucas = katz._lucas

    def recorded(k, p2, q):
        runs.append(k)
        return lucas(k, p2, q)

    monkeypatch.setattr(katz, "_lucas", recorded)
    return runs


def test_exact_cycle_runs_one_doubling_above_half(lucas_runs):
    # arcs 0 and 1 read U_(n-1) and U_n from one run at n - 1; an arc
    # k >= 2 runs at n - k - 1 and k - 1 and adds (Lucas's addition law),
    # and at the half arc the two runs are one
    for k, indices in ((0, [319]), (1, [319]), (2, [317, 1]), (3, [316, 2]), (160, [159])):
        lucas_runs.clear()
        value = katz.katz_cycle_exact(320, 1, 1 + k, 0.46)
        assert lucas_runs == indices, k
        assert value == Fraction(*three_run_cycle_parts(320, 1, 1 + k, 0.46))


def test_exact_path_runs_one_doubling_above_half(lucas_runs):
    # runs at n - j, j and i, with no run at n + 1: U_(n+1) is added from
    # the first two; a pair past the anti-diagonal is read as its mirror,
    # and U_i is not run again on the diagonal or when i + j is n or n + 1
    cases = {
        (1, 2): [318, 2, 1],
        (2, 5): [315, 5, 2],
        (5, 5): [315, 5],
        (316, 319): [315, 5, 2],
        (319, 320): [318, 2, 1],
        (1, 320): [0, 320],
        (160, 160): [160],
        (159, 161): [159, 161],
        (160, 161): [159, 161],
    }
    for (i, j), indices in cases.items():
        lucas_runs.clear()
        value = katz.katz_path_exact(320, i, j, 0.46)
        assert lucas_runs == indices, (i, j)
        assert value == Fraction(*three_run_path_parts(320, i, j, 0.46))


# The routines proved only on (0, 1/2), where every d_k is positive, and
# the exact entries, which check their graph's interval: a cycle's is
# (0, 1/2) too, and path(5)'s (0, 1/rho_5) reaches 0.577.
HALF_INTERVAL_ROUTINES = {
    "ratio_constant": lambda a: dpoly.ratio_constant(1, a),
    "katz_path_exact": lambda a: katz.katz_path_exact(5, 1, 2, a),
    "katz_cycle_exact": lambda a: katz.katz_cycle_exact(5, 1, 2, a),
    "katz_limit_path": lambda a: katz.katz_limit_path(1, 2, a),
    "katz_limit_cycle": lambda a: katz.katz_limit_cycle(1, a),
    "cycle_numerator_gap": lambda a: ordering.cycle_numerator_gap(8, 1, a),
}


@pytest.mark.parametrize("alpha", [0, 0.5, -0.1, math.nan, Fraction(1, 2)], ids=repr)
@pytest.mark.parametrize("name", list(HALF_INTERVAL_ROUTINES))
def test_half_interval_is_checked_by_every_routine(name, alpha):
    if name == "katz_path_exact" and alpha == 0.5:
        # admissible for path(5), so the exact path entry takes it
        assert katz.katz_path_exact(5, 1, 2, alpha) == list_route_path_exact(5, [(1, 2)], alpha)[0]
        return
    # the exact entries raise the graph's AdmissibilityError
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1/2\)|is not admissible for"):
        HALF_INTERVAL_ROUTINES[name](alpha)


@pytest.mark.parametrize("name", list(HALF_INTERVAL_ROUTINES))
def test_half_interval_admits_values_just_below_half(name):
    assert math.isfinite(HALF_INTERVAL_ROUTINES[name](0.499))


def test_half_interval_check_is_exact_for_fractions():
    assert katz.katz_path_exact(5, 1, 2, Fraction(1, 2) - Fraction(1, 10**30)) > 0


def test_exact_evaluators_validate():
    with pytest.raises(AdmissibilityError):
        katz.katz_path_exact(6, 1, 2, Fraction(5, 9))  # past 1/rho_6 = 0.55496
    with pytest.raises(AdmissibilityError):
        katz.katz_cycle_exact(4, 1, 2, Fraction(1, 2))
    # small cycles and the diagonal are exact too: a / (1 - 4 a^2) on C4
    assert katz.katz_cycle_exact(4, 1, 2, Fraction(1, 5)) == Fraction(5, 21)
    assert float(katz.katz_cycle_exact(7, 2, 2, Fraction(1, 5))) == pytest.approx(
        katz.katz_cycle(7, 2, 2, 0.2), rel=1e-15
    )


def path_bound(n):
    """The computed 1/rho_n of path(n), the upper end of its admissible interval."""
    return 1.0 / spectral_radius(GraphSpec.path(n))


def test_exact_path_is_the_list_route_on_its_whole_interval():
    # 1/2, halfway to the computed 1/rho_n and the last double below it
    for n in range(2, 41):
        bound = path_bound(n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for alpha in (0.5, (0.5 + bound) / 2, math.nextafter(bound, 0.0)):
            got = [katz.katz_path_exact(n, i, j, alpha) for i, j in pairs]
            assert got == list_route_path_exact(n, pairs, alpha), (n, alpha)


def test_exact_path_denominator_is_positive_at_the_last_double_below_the_bound():
    for n in range(2, 401):
        assert katz._path_exact_parts(n, 1, 2, math.nextafter(path_bound(n), 0.0))[1] > 0, n


def test_exact_routes_refuse_their_bound_and_above():
    for n in (2, 3, 6, 7, 40, 57, 400):
        bound = path_bound(n)
        for alpha in (bound, math.nextafter(bound, 1.0), Fraction(bound), Fraction(bound) + Fraction(1, 10**40)):
            with pytest.raises(AdmissibilityError):
                katz.katz_path_exact(n, 1, 2, alpha)
    # cycles keep (0, 1/2), compared exactly
    for n in (3, 8, 57):
        for alpha in (0.5, Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**40)):
            with pytest.raises(AdmissibilityError):
                katz.katz_cycle_exact(n, 1, 2, alpha)
        assert katz.katz_cycle_exact(n, 1, 2, Fraction(1, 2) - Fraction(1, 10**40)) > 0


def test_exact_path_refuses_a_fraction_past_the_true_bound():
    # the double 1/rho_n is within an ulp of the true one, above it at about
    # half the sizes: an exact value between the two gives U_(n+1) <= 0
    refused = 0
    for n in range(2, 61):
        alpha = Fraction(path_bound(n)) - Fraction(1, 10**40)
        try:
            value = katz.katz_path_exact(n, 1, 2, alpha)
        except AdmissibilityError as error:
            assert "d_n(alpha) <= 0" in str(error)
            refused += 1
        else:
            assert value > 0 and [value] == list_route_path_exact(n, [(1, 2)], alpha), n
    assert refused > 0


def test_limit_path_worked_values():
    # alpha = 0.3 gives c = 10/9
    assert katz.katz_limit_path(1, 2, 0.3) == pytest.approx(0.3 * (10.0 / 9.0) ** 2, rel=1e-14)
    assert katz.katz_limit_path(1, 1, 0.3) == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_limit_cycle_worked_value():
    assert katz.katz_limit_cycle(2, 0.3) == pytest.approx(5.0 / 36.0, rel=1e-13)


@pytest.mark.parametrize("i, j", [(1, 2), (2, 5), (3, 3)])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
def test_limit_path_is_the_large_n_value(i, j, alpha):
    assert katz.katz_path(400, i, j, alpha) == pytest.approx(
        katz.katz_limit_path(i, j, alpha), abs=1e-10
    )


@pytest.mark.parametrize("i", [1, 2, 3, 7, 20])
@pytest.mark.parametrize("alpha", [1e-5, 1e-3, 0.1, 0.3, 0.45, 0.499])
def test_limit_path_diagonal_keeps_its_digits_at_small_alpha(i, alpha):
    # c^i d_{i-1} - 1 subtracts 1 from a number near 1 and lost up to 8e-8
    # relative at alpha = 1e-5; at n = 600 the exact entry equals its limit
    # to far below double resolution at each of these alphas
    exact = float(katz.katz_path_exact(600, i, i, alpha))
    assert abs(katz.katz_limit_path(i, i, alpha) - exact) <= 4e-15 * exact


@pytest.mark.parametrize("offset", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
def test_limit_cycle_is_the_large_n_value(offset, alpha):
    assert katz.katz_cycle(401, 1, 1 + offset, alpha) == pytest.approx(
        katz.katz_limit_cycle(offset, alpha), abs=1e-10
    )


def test_limit_cycle_covers_both_parities():
    # one even and one odd offset against a large-cycle inverse-free value
    for offset in (4, 5):
        assert katz.katz_cycle(501, 1, 1 + offset, 0.2) == pytest.approx(
            katz.katz_limit_cycle(offset, 0.2), abs=1e-12
        )


def test_limit_validation():
    with pytest.raises(ValueError):
        katz.katz_limit_path(0, 1, 0.3)
    with pytest.raises(ValueError):
        katz.katz_limit_path(3, 2, 0.3)
    with pytest.raises(ValueError):
        katz.katz_limit_path(1, 2, 0.5)
    with pytest.raises(ValueError):
        katz.katz_limit_cycle(0, 0.3)
    with pytest.raises(TypeError):
        katz.katz_limit_cycle(1.5, 0.3)


@pytest.mark.parametrize("i, j", [(2, 3.5), (2, 2.0), (True, 2)])
def test_limit_path_takes_integer_labels_only(i, j):
    # checked like katz_limit_cycle's offset: neither a float nor a bool is a vertex
    with pytest.raises(TypeError, match="vertex labels must be integers"):
        katz.katz_limit_path(i, j, 0.3)


def test_determinant_oracles():
    from katzlab import dpoly

    assert katz.determinant_path(8, 0.3) == pytest.approx(dpoly.d_recursive(8, 0.3), rel=1e-13)
    assert katz.determinant_cycle(9, 0.3) == pytest.approx(
        dpoly.D_cycle_denominator(9, 0.3), rel=1e-13
    )


def test_admissible_window_scales_with_size():
    # larger paths push 1/rho down toward 1/2
    assert 1.0 / spectral_radius(GraphSpec.path(5)) > 1.0 / spectral_radius(GraphSpec.path(50)) > 0.5


def test_series_oracle_has_no_tolerance_parameter():
    with pytest.raises(TypeError):
        katz.katz_oracle_series(GraphSpec.path(4), 0.3, tol=1e-12)


@pytest.mark.parametrize("g", [GraphSpec.path(6), GraphSpec.cycle(7)], ids=["path6", "cycle7"])
def test_oracles_take_a_sequence_of_alphas(g):
    alphas = [0.05, 0.3, 0.46]
    inverse = katz.katz_oracle_inverse(g, alphas)
    determinant = katz.determinant_path if g.is_path else katz.determinant_cycle
    dets = determinant(g.n, alphas)
    assert inverse.shape == (3, g.n, g.n) and dets.shape == (3,)
    for index, alpha in enumerate(alphas):
        assert np.array_equal(inverse[index], katz.katz_oracle_inverse(g, alpha))
        assert dets[index] == determinant(g.n, alpha)
    with pytest.raises(AdmissibilityError):
        katz.katz_oracle_inverse(g, [0.3, 0.6])
    with pytest.raises(AdmissibilityError):
        determinant(g.n, [0.3, 0.0])
    with pytest.raises(ValueError):
        katz.katz_oracle_inverse(g, [[0.3]])


def list_route_path(seq, n, i, j, alpha):
    """katz_path (i <= j) as the list route evaluated it from seq = d_sequence(n, alpha)."""
    if i == j:
        before = seq[i - 2] if i > 1 else 0
        after = seq[n - i - 1] if i < n else 0
        return alpha * alpha * (seq[i - 1] * after + before * seq[n - i]) / seq[n]
    return alpha ** (j - i) * (seq[i - 1] * seq[n - j] / seq[n])


def list_route_cycle(seq, n, k, alpha):
    """katz_cycle at arc length k as the list route evaluated it from seq = d_sequence(n - 1, alpha)."""
    if k == 0:
        numerator = 2 * alpha**n + 2 * alpha * alpha * seq[n - 2]
    else:
        numerator = alpha**k * seq[n - k - 1] + alpha ** (n - k) * seq[k - 1]
    return numerator / (seq[n - 1] - 2 * alpha**n - 2 * alpha * alpha * seq[n - 2])


def same(got, want):
    """Equal value and type; NaN matches NaN."""
    return type(got) is type(want) and (got == want or (got != got and want != want))


SCALAR_EXTRA_ALPHAS = [1e-5, 0.02, 0.49, 0.499]


def scalar_alphas(g):
    """katz_grid(g), which reaches above 1/2 on paths with n <= 4, and the extra probe values."""
    return sorted(set(katz_grid(g)) | set(SCALAR_EXTRA_ALPHAS))


def test_scalar_path_is_the_list_route_at_every_pair():
    for n in range(2, 81):
        alphas = scalar_alphas(GraphSpec.path(n))
        # every pair of every size, at a rotating share of the alphas: each alpha meets many sizes
        for alpha in alphas[n % 8 :: 8] if n > 4 else alphas:
            seq = dpoly.d_sequence(n, alpha)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    want = list_route_path(seq, n, i, j, alpha)
                    assert same(katz.katz_path(n, i, j, alpha), want), (n, i, j, alpha)
                    if n <= 12:
                        assert same(katz.katz_path(n, j, i, alpha), want), (n, j, i, alpha)


def test_scalar_cycle_is_the_list_route_at_every_arc():
    for n in range(3, 81):
        for alpha in scalar_alphas(GraphSpec.cycle(n)):
            seq = dpoly.d_sequence(n - 1, alpha)
            for k in range(n // 2 + 1):
                want = list_route_cycle(seq, n, k, alpha)
                assert same(katz.katz_cycle(n, 1, 1 + k, alpha), want), (n, k, alpha)
                # the same arc with the labels swapped and across the wrap
                assert same(katz.katz_cycle(n, n - k if k else n, n, alpha), want), (n, k, alpha)


def sampled_pairs(n, rng):
    middle = (n + 1) // 2
    pairs = {(1, 1), (1, 2), (1, n), (n, n), (n - 1, n), (middle, middle), (middle, middle + 1), (n // 2, n // 2 + 3)}
    while len(pairs) < 40:
        i, j = sorted((rng.randint(1, n), rng.randint(1, n)))
        pairs.add((i, j))
    return sorted(pairs)


@pytest.mark.parametrize("n", [247, 250, 1000, 3000])
def test_scalar_entries_are_the_list_route_at_sampled_pairs(n):
    rng = np.random.default_rng(n)
    pairs = sampled_pairs(n, random.Random(n))
    arcs = sorted({0, 1, 2, n // 2, n // 2 - 1, *rng.integers(0, n // 2 + 1, 20).tolist()})
    # past float64_size_limit the d-terms underflow; both routes then give the same 0.0 or nan
    for alpha in scalar_alphas(GraphSpec.path(n)):
        seq = dpoly.d_sequence(n, alpha)
        for i, j in pairs:
            assert same(katz.katz_path(n, i, j, alpha), list_route_path(seq, n, i, j, alpha)), (n, i, j, alpha)
    for alpha in scalar_alphas(GraphSpec.cycle(n)):
        seq = dpoly.d_sequence(n - 1, alpha)
        for k in arcs:
            assert same(katz.katz_cycle(n, 1, 1 + k, alpha), list_route_cycle(seq, n, k, alpha)), (n, k, alpha)


@pytest.mark.parametrize("alpha", [Fraction(1, 5), np.float64(0.3)], ids=repr)
def test_scalar_entries_keep_the_list_route_type(alpha):
    # whatever alpha's type, the entries are Python floats: the list route at float(alpha)
    x = float(alpha)
    for n in range(2, 13):
        seq = dpoly.d_sequence(n, x)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert same(katz.katz_path(n, i, j, alpha), list_route_path(seq, n, i, j, x)), (n, i, j)
    for n in range(3, 13):
        seq = dpoly.d_sequence(n - 1, x)
        for k in range(n // 2 + 1):
            assert same(katz.katz_cycle(n, 1, 1 + k, alpha), list_route_cycle(seq, n, k, x)), (n, k)


def test_scalar_entries_hold_no_d_list():
    # at n = 200,000 the d-list of the list route peaked at 6.1 MiB
    katz.katz_path(10, 1, 2, 0.01)
    katz.katz_cycle(10, 1, 3, 0.01)
    assert traced_peak(lambda: katz.katz_path(200_000, 1, 2, 0.01)) < 64 * 1024
    assert traced_peak(lambda: katz.katz_cycle(200_000, 1, 3, 0.01)) < 64 * 1024


def fail_the_recursion(monkeypatch):
    def ran(*args):
        raise AssertionError("the recursion ran")

    for module in (dpoly, katz, ordering):
        monkeypatch.setattr(module, "_d_terms", ran)


@pytest.mark.parametrize("route", [katz.katz_path, katz.katz_cycle])
def test_scalar_entries_check_before_the_recursion(route, monkeypatch):
    fail_the_recursion(monkeypatch)
    for bad_label in ((0, 2), (1, 11), (11, 1)):
        with pytest.raises(ValueError, match="out of range"):
            route(10, *bad_label, 0.3)
    for bad_label in ((1.0, 2), (1, True)):
        with pytest.raises(TypeError, match="vertex label must be an integer"):
            route(10, *bad_label, 0.3)
    for bad_alpha in (0.0, -0.1, 0.6, math.nan):
        with pytest.raises(AdmissibilityError):
            route(10, 1, 2, bad_alpha)
    # admissibility is checked before the labels, as it always was
    with pytest.raises(AdmissibilityError):
        route(10, 0, 2, 0.6)
    with pytest.raises(TypeError, match="vertex count must be an integer"):
        route(10.0, 1, 2, 0.3)
    with pytest.raises(ValueError, match="graphs need n >="):
        route(-3, 1, 2, 0.3)


@pytest.mark.parametrize("label", [np.array(1), np.array([1]), np.array([1, 2])], ids=repr)
@pytest.mark.parametrize("route", [katz.katz_path, katz.katz_path_exact, katz.katz_cycle, katz.katz_cycle_exact])
def test_scalar_routes_refuse_array_labels(route, label):
    # the path routes' TypeError and text on both sides, and no numpy arithmetic (or warning) before it
    for labels in ((label, 4), (4, label)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError) as info:
                route(10, *labels, 0.3)
        assert str(info.value) == f"vertex label must be an integer, got {label!r}"
