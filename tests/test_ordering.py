import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from katzlab import cli, dpoly, katz, ordering
from katzlab.dpoly import INV_SQRT5
from katzlab.graphs import AdmissibilityError, GraphSpec, VertexPair, graph_distance, resistance, spectral_radius
from katzlab.katz import katz_cycle_matrix, katz_path_matrix
from katzlab.ordering import (
    TIE_TOL,
    AgreementReport,
    BracketError,
    RankingInversion,
    agreement,
    class_structures_match,
    cutoff_root,
    cutoff_table,
    cycle_numerator_gap,
    p_gap,
    p_tilde,
    pair_scores,
    rank_pairs,
    score_classes,
)
from katzlab.verify import katz_grid


def test_pair_scores_shapes_and_validation():
    g = GraphSpec.path(6)
    assert len(pair_scores(g, "distance")) == 15
    assert len(pair_scores(g, "katz", 0.3)) == 15
    with pytest.raises(ValueError):
        pair_scores(g, "betweenness")
    with pytest.raises(ValueError):
        pair_scores(g, "katz")  # needs alpha


def test_rank_pairs_direction():
    g = GraphSpec.path(5)
    katz_best = rank_pairs(g, "katz", 0.3).entries[0]
    dist_best = rank_pairs(g, "distance").entries[0]
    # katz ranks high scores first, the metrics rank low values first
    assert katz_best[1] == max(pair_scores(g, "katz", 0.3))
    assert dist_best[1] == min(pair_scores(g, "distance"))


def test_rank_pairs_tie_break_is_lexicographic():
    g = GraphSpec.path(4)
    ranking = rank_pairs(g, "distance")
    top = [entry[0] for entry in ranking.entries[:3]]
    assert top == [VertexPair(1, 2), VertexPair(2, 3), VertexPair(3, 4)]


def test_score_classes_on_a_cycle():
    g = GraphSpec.cycle(6)
    classes = score_classes(g, "katz", 0.3)
    # arc lengths 1, 2, 3 give classes of sizes 6, 6, 3, best first
    assert [len(c) for c in classes] == [6, 6, 3]
    assert VertexPair(1, 2) in classes[0]
    assert VertexPair(1, 4) in classes[2]
    assert class_structures_match(g, 0.3)


def test_score_classes_far_apart_scales():
    # distant arc classes on a big cycle at tiny decay have scores spread
    # over many orders of magnitude; the relative tie rule keeps them apart
    g = GraphSpec.cycle(30)
    classes = score_classes(g, "katz", 0.02)
    assert [len(c) for c in classes] == [30] * 14 + [15]
    assert class_structures_match(g, 0.02)


def test_path_katz_classes_refine_distance_classes():
    g = GraphSpec.path(5)
    by_distance = score_classes(g, "distance")
    by_katz = score_classes(g, "katz", 0.3)
    assert len(by_katz) > len(by_distance)
    for katz_class in by_katz:
        distances = {graph_distance(g, p.i, p.j) for p in katz_class}
        assert len(distances) == 1


def test_agreement_on_cycles():
    report = agreement(GraphSpec.cycle(15), 0.46)
    assert report.all_agree()
    assert report.witness is None


def test_agreement_on_small_decay_path():
    report = agreement(GraphSpec.path(10), 0.3)
    assert report.katz_vs_resistance
    assert report.katz_vs_distance
    assert report.resistance_vs_distance


def test_path_inversion_above_the_probe():
    report = agreement(GraphSpec.path(10), 0.46)
    assert not report.katz_vs_resistance
    assert not report.katz_vs_distance
    assert report.resistance_vs_distance
    w = report.witness
    assert w is not None
    # katz prefers the longer pair, the witness spans adjacent distances
    da = graph_distance(report.graph, w.pair_a.i, w.pair_a.j)
    db = graph_distance(report.graph, w.pair_b.i, w.pair_b.j)
    assert da == db + 1
    assert w.scores_a[0] > w.scores_a[1]  # katz: pair_a strictly better
    assert w.scores_b[0] > w.scores_b[1]  # resistance: pair_a strictly worse


def test_path_inversion_witness_detail():
    w = agreement(GraphSpec.path(10), 0.46).witness
    assert (w.pair_a, w.pair_b) == (VertexPair(3, 5), VertexPair(1, 2))
    assert w.scores_a == pytest.approx((1.0147565749406522, 0.9492629879535596), rel=1e-12)
    assert w.scores_b == (2.0, 1.0)


def test_gap_polynomial_worked_signs():
    assert p_gap(10, 1, 0.3) > 0.0
    assert p_gap(10, 1, 0.46) < 0.0
    assert p_gap(10, 1, 0.46) == pytest.approx(-0.10784665385832404, rel=1e-12)


@given(
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.01, max_value=0.499),
)
def test_gap_and_reduced_form_share_sign(n, j, alpha):
    if n - j < 2:
        n = j + 2
    g = p_gap(n, j, alpha)
    t = p_tilde(n, j, alpha)
    if abs(g) > 1e-13:  # too close to a root, sign is noise
        assert (g > 0.0) == (t > 0.0)


def test_gap_is_the_difference_of_the_two_scalar_entries_bit_for_bit():
    for n in range(3, 61):
        for j in (1, 2, 3):
            if n - j < 2:
                continue
            m = (n - j + 1) // 2
            for alpha in katz_grid(GraphSpec.path(n)) + [0.02, INV_SQRT5, 0.49]:
                want = katz.katz_path(n, 1, 1 + j, alpha) - katz.katz_path(n, m, m + j + 1, alpha)
                assert p_gap(n, j, alpha).hex() == want.hex(), (n, j, alpha)
    with pytest.raises(AdmissibilityError):
        p_gap(10, 1, 0.6)


def test_reduced_form_depends_only_on_the_span():
    for span in (6, 11, 20):
        base = p_tilde(span + 1, 1, 0.47)
        assert p_tilde(span + 2, 2, 0.47) == base
        assert p_tilde(span + 3, 3, 0.47) == base


def test_reduced_form_at_half_is_dyadic():
    # d_k(1/2) = (k+1)/2^k makes p_tilde(n, j, 1/2) exactly representable
    assert p_tilde(5, 1, 0.5) == 0.0
    assert p_tilde(7, 1, 0.5) == -3.0 / 32.0


def test_gap_polynomial_validation():
    with pytest.raises(ValueError):
        p_tilde(4, 3, 0.3)  # span below 2
    with pytest.raises(ValueError):
        p_gap(10, 0, 0.3)
    with pytest.raises(ValueError):
        p_gap(10, -1, 0.3)


def test_cutoff_root_worked_example():
    result = cutoff_root(10, 1)
    assert result.root == pytest.approx(0.45013971462548147, abs=1e-12)
    assert INV_SQRT5 < result.root < 0.5
    assert result.residual < 1e-13
    # the sign really flips across the reported root
    assert p_gap(10, 1, result.root - 1e-6) > 0.0
    assert p_gap(10, 1, result.root + 1e-6) < 0.0


def test_cutoff_root_bisects_within_46_halvings():
    # the bound stated at BISECTION_WIDTH: 0.053 / 2**46 < 1e-15
    assert ordering.BISECTION_WIDTH == 1e-15
    assert 46 <= ordering.BISECTION_ITERATION_CAP
    bracketed = 0
    for j in range(1, 6):
        for n in range(j + 5, j + 400):
            try:
                result = cutoff_root(n, j)
            except BracketError:
                continue
            bracketed += 1
            assert 0 < result.iterations <= 46, (n, j)
    assert bracketed > 0


def test_cutoff_root_deep_tail_still_brackets():
    # the root at span 55 sits within 1e-12 of the left endpoint; the
    # bracket setup has to shrink its initial nudge to keep a sign change
    result = cutoff_root(56, 1)
    assert INV_SQRT5 < result.root < 0.5
    assert result.root - INV_SQRT5 < 1e-12
    assert result.bracket_lo <= INV_SQRT5 + 1e-13


def test_cutoff_root_validation():
    with pytest.raises(BracketError):
        cutoff_root(5, 1)  # span 4: the reduced form has no root here


@pytest.mark.parametrize("n, j", [(145, 1), (149, 1), (529, 1), (533, 5)])
def test_cutoff_root_zero_left_probe_has_no_bracket(n, j):
    # the left probe reads exactly zero at the smallest nudge: no sign change
    with pytest.raises(BracketError, match=r"= 0\.000e\+00, p_tilde"):
        cutoff_root(n, j)


def test_cutoff_table_monotone():
    roots = [r.root for r in cutoff_table(1, range(6, 13))]
    assert all(a > b for a, b in zip(roots, roots[1:]))


def test_cutoff_table_validation():
    with pytest.raises(ValueError):
        cutoff_table(1, range(5, 10))  # first n has span 4


def test_cycle_numerator_gap_positive_and_decreasing():
    for alpha in (0.1, 0.3, 0.46):
        gaps = [cycle_numerator_gap(14, k, alpha) for k in range(1, 7)]
        assert all(g > 0.0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_cycle_numerator_gap_half_arc_form():
    # even cycle, deepest arc: the gap collapses to alpha^(L-1) (1-2a) d_{L-1}
    from katzlab.dpoly import d_recursive

    for ell, alpha in ((6, 0.3), (9, 0.17), (15, 0.46)):
        got = cycle_numerator_gap(2 * ell, ell - 1, alpha)
        want = alpha ** (ell - 1) * (1.0 - 2.0 * alpha) * d_recursive(ell - 1, alpha)
        assert got == pytest.approx(want, rel=1e-11)


def test_cycle_numerator_gap_validation():
    with pytest.raises(ValueError):
        cycle_numerator_gap(10, 5, 0.3)  # k must stay below n//2
    with pytest.raises(ValueError):
        cycle_numerator_gap(10, 0, 0.3)
    with pytest.raises(ValueError):
        cycle_numerator_gap(10, 2, 0.5)
    with pytest.raises(TypeError):
        cycle_numerator_gap(10, 2.0, 0.3)


def test_ranking_entries_are_complete():
    g = GraphSpec.cycle(7)
    ranking = rank_pairs(g, "resistance")
    assert sorted(entry[0] for entry in ranking.entries) == g.pairs()


# -- reference routes ----------------------------------------------------
# Direct definitions (per-pair loops, P x P masks), used as oracles for the
# array routes on small graphs.


def dense_first_inversion(keys_a, keys_b):
    # the P x P masks, 64 rows at a time, up to the first row that has a violation
    for lo in range(0, len(keys_a), 64):
        strict_a = keys_a[lo : lo + 64, None] < keys_a[None, :] - TIE_TOL
        strict_b_reversed = keys_b[lo : lo + 64, None] > keys_b[None, :] + TIE_TOL
        violations = np.argwhere(strict_a & strict_b_reversed)
        if violations.size:
            return lo + int(violations[0, 0]), int(violations[0, 1])
    return None


def reference_scores(g, metric, alpha):
    if metric == "katz":
        matrix = katz_path_matrix(g.n, alpha) if g.is_path else katz_cycle_matrix(g.n, alpha)
        return [float(matrix[p.i - 1, p.j - 1]) for p in g.pairs()]
    return list(alpha_free_scores(g, metric))


@functools.lru_cache(maxsize=None)
def alpha_free_scores(g, metric):
    # resistance and distance do not depend on alpha: one per-pair loop per graph
    if metric == "resistance":
        return tuple(resistance(g, p.i, p.j) for p in g.pairs())
    return tuple(float(graph_distance(g, p.i, p.j)) for p in g.pairs())


def reference_agreement(g, alpha):
    pairs = g.pairs()
    scores = {m: reference_scores(g, m, alpha) for m in ordering.METRICS}
    keys = {m: (-np.array(s) if m == "katz" else np.array(s)) for m, s in scores.items()}
    flags = []
    witness = None
    for a, b in (("katz", "resistance"), ("katz", "distance"), ("resistance", "distance")):
        found = dense_first_inversion(keys[a], keys[b])
        flags.append(found is None)
        if witness is None and found is not None:
            x, y = found
            witness = RankingInversion(
                a, b, pairs[x], pairs[y], (scores[a][x], scores[a][y]), (scores[b][x], scores[b][y])
            )
    return AgreementReport(g, alpha, *flags, witness)


def reference_classes(g, metric, alpha, tol=TIE_TOL):
    pairs = g.pairs()
    scores = reference_scores(g, metric, alpha)
    sign = -1.0 if metric == "katz" else 1.0
    order = sorted(range(len(pairs)), key=lambda ix: (sign * scores[ix], pairs[ix]))
    classes = []
    last = None
    for ix in order:
        score = scores[ix]
        if last is None or abs(score - last) > tol * max(abs(score), abs(last)):
            classes.append(set())
        classes[-1].add(pairs[ix])
        last = score
    return classes


# Keys with many exact ties and with gaps of exactly +-TIE_TOL, where the
# strict comparisons sit on their boundary.
TIE_LEVELS = [b + d for b in (-2.0, 0.0, 1.0) for d in (0.0, TIE_TOL, -TIE_TOL, 2 * TIE_TOL)]
KEY_VALUES = st.one_of(st.sampled_from(TIE_LEVELS), st.floats(min_value=-4.0, max_value=4.0))
# each pair its own distance class, in any order
KEYED_PERMUTATIONS = st.integers(min_value=1, max_value=40).flatmap(
    lambda p: st.tuples(st.lists(KEY_VALUES, min_size=p, max_size=p), st.permutations(range(p)))
)


@given(KEYED_PERMUTATIONS)
def test_first_inversion_matches_dense_masks(drawn):
    keys_a, classes = (np.array(x) for x in drawn)
    assert ordering._first_inversion(keys_a[None], classes) == [dense_first_inversion(keys_a, classes.astype(float))]


# each pair's A key and its integer distance class, classes repeating
CLASSED_KEYS = st.lists(st.tuples(KEY_VALUES, st.integers(min_value=0, max_value=12)), min_size=1, max_size=40)


@given(CLASSED_KEYS)
def test_first_inversion_over_classes_matches_dense_masks(pairs):
    keys_a = np.array([key for key, _ in pairs])
    classes = np.array([c for _, c in pairs])
    assert ordering._first_inversion(keys_a[None], classes) == [dense_first_inversion(keys_a, classes.astype(float))]


# a block: up to 8 rows of A keys, one per alpha, over one row of classes
CLASSED_BLOCKS = st.integers(min_value=1, max_value=30).flatmap(
    lambda p: st.tuples(
        st.lists(st.lists(KEY_VALUES, min_size=p, max_size=p), min_size=1, max_size=8),
        st.lists(st.integers(min_value=0, max_value=12), min_size=p, max_size=p),
    )
)


@given(CLASSED_BLOCKS)
def test_first_inversion_of_a_block_is_that_of_each_row(drawn):
    keys, classes = (np.array(x) for x in drawn)
    expected = [dense_first_inversion(row, classes.astype(float)) for row in keys]
    assert ordering._first_inversion(keys, classes) == expected
    assert [ordering._first_inversion(row[None], classes)[0] for row in keys] == expected


@given(CLASSED_BLOCKS)
def test_first_inversion_with_one_pair_per_class_in_order(drawn):
    # classes None, a cycle's arcs: pair k alone in class k
    keys = np.array(drawn[0])
    expected = [dense_first_inversion(row, np.arange(len(row), dtype=float)) for row in keys]
    assert ordering._first_inversion(keys, None) == expected
    assert ordering._first_inversion(keys, np.arange(keys.shape[1])) == expected


@pytest.mark.parametrize("n", [*range(3, 41), 75, 100, 301])
def test_cycle_class_match_is_that_of_the_ranked_classes(n):
    # a cycle's classes match with no sort: Katz falls beyond the tie
    # tolerance from each arc to the next
    g = GraphSpec.cycle(n)
    alphas = [1e-9, 0.05, 0.3, *WITNESS_ALPHAS, *NEAR_GOLDEN, 0.499, 0.4999999]
    katz = ordering._pair_entries(g, alphas, np.ones(n // 2, dtype=np.int64), np.arange(2, n // 2 + 2))
    order, ids = ordering._ranked_classes("katz", katz)
    assert class_structures_match(g, alphas) == np.equal(ids, order).all(axis=1).tolist()


@given(CLASSED_BLOCKS)
def test_tie_classes_of_a_block_are_those_of_each_row(drawn):
    scores = np.array(drawn[0])
    order, ids = ordering._ranked_classes("katz", scores)
    for row, row_order, row_ids in zip(scores, order, ids):
        alone = ordering._ranked_classes("katz", row[None])
        assert np.array_equal(row_order, alone[0][0]) and np.array_equal(row_ids, alone[1][0])
        # the stable order, and a new class wherever consecutive scores differ by more than TIE_TOL
        assert row_order.tolist() == sorted(range(len(row)), key=lambda ix: -row[ix])
        ranked = row[row_order]
        steps = [abs(b - a) > TIE_TOL * max(abs(a), abs(b)) for a, b in zip(ranked, ranked[1:])]
        assert row_ids.tolist() == [sum(steps[:k]) for k in range(len(row))]


@pytest.mark.parametrize(
    "keys_a, keys_b, expected",
    [
        # a gap of exactly TIE_TOL under A is not a strict preference
        ([0.0, TIE_TOL, 2.0], [1, 0, 0], (0, 2)),
        # so pair 0, whose one better-class pair is exactly TIE_TOL ahead, has
        # no partner; pair 2's partner is in a better class, not its own
        ([0.0, TIE_TOL, 1.0, 3.0, 2.0], [1, 0, 2, 2, 1], (2, 4)),
    ],
)
def test_first_inversion_is_strict_at_exactly_the_tolerance(keys_a, keys_b, expected):
    # B's keys are the distance classes
    keys_a, keys_b = np.array(keys_a), np.array(keys_b)
    assert dense_first_inversion(keys_a, keys_b) == expected
    assert ordering._first_inversion(keys_a[None], keys_b) == [expected]


def test_resistance_and_distance_strictly_prefer_the_same_span_classes():
    # agreement reports Katz's first inversion against distance for
    # resistance too, which rests on these boolean matrices being equal
    sizes = [*range(2, 401), 1000, 2000]
    graphs = [GraphSpec.path(n) for n in sizes] + [GraphSpec.cycle(n) for n in sizes if n >= 3]
    for g in graphs:
        ends = np.arange(2, g.n + 1)
        r, d = (s[:, None] > s[None, :] + TIE_TOL for s in (resistance(g, 1, ends), graph_distance(g, 1, ends)))
        assert np.array_equal(r, d), g


GRID_ALPHAS = (1e-6, 0.02, 0.1, 0.3, 0.44, 0.4472135954999579, 0.46, 0.49, 0.499)
GRID_GRAPHS = [GraphSpec.path(n) for n in (2, 3, 4, 5, 8, 10, 13, 21, 30, 40)] + [
    GraphSpec.cycle(n) for n in (3, 4, 5, 6, 9, 14, 21, 30, 39, 40)
]


@pytest.mark.parametrize("g", GRID_GRAPHS, ids=lambda g: f"{g.family}{g.n}")
def test_array_routes_match_reference_on_grid(g):
    for alpha in GRID_ALPHAS:
        assert agreement(g, alpha) == reference_agreement(g, alpha)
        reference = reference_classes(g, "katz", alpha)
        assert score_classes(g, "katz", alpha) == reference
        expected = all(reference_classes(g, m, alpha) == reference for m in ("resistance", "distance"))
        assert class_structures_match(g, alpha) == expected


@pytest.mark.parametrize("g", GRID_GRAPHS, ids=lambda g: f"{g.family}{g.n}")
def test_single_metric_routes_are_the_per_pair_scalars(g):
    pairs = g.pairs()
    for metric in ("resistance", "distance"):
        expected = reference_scores(g, metric, None)
        assert [x.hex() for x in pair_scores(g, metric)] == [x.hex() for x in expected]
        entries = sorted(zip(pairs, expected), key=lambda entry: (entry[1], entry[0]))
        assert rank_pairs(g, metric).entries == tuple(entries)
        assert score_classes(g, metric) == reference_classes(g, metric, None)


# -- a sequence of alphas ------------------------------------------------

SWEEP_GRAPHS = [GraphSpec.path(n) for n in range(2, 41)] + [GraphSpec.cycle(n) for n in range(3, 41)]
# above the path cut-off roots, where agreement finds witnesses
WITNESS_ALPHAS = [0.465, 0.47, 0.475, 0.48, 0.485, 0.49]


@pytest.mark.parametrize("g", SWEEP_GRAPHS, ids=lambda g: f"{g.family}{g.n}")
def test_a_sequence_of_alphas_is_the_list_of_scalar_calls(g):
    alphas = katz_grid(g) + WITNESS_ALPHAS
    reports = agreement(g, alphas)
    assert reports == [agreement(g, alpha) for alpha in alphas]
    assert class_structures_match(g, alphas) == [class_structures_match(g, alpha) for alpha in alphas]
    assert agreement(g, np.array(alphas)) == reports
    if g.is_path and g.n >= 10:
        assert any(report.witness is not None for report in reports)


@pytest.mark.parametrize("g", [GraphSpec.path(12), GraphSpec.cycle(12)], ids=lambda g: f"{g.family}{g.n}")
def test_reports_carry_the_alpha_as_a_float(g):
    for alpha in (np.float32(0.3), np.float64(0.46), Fraction(3, 10)):
        expected = agreement(g, float(alpha))
        for given_alpha in (alpha, [alpha], np.array([alpha])):
            reports = agreement(g, given_alpha)
            assert repr(reports) == repr(expected if np.ndim(given_alpha) == 0 else [expected]), given_alpha


def test_rank_pairs_carries_the_alpha_as_a_float():
    g = GraphSpec.path(5)
    for alpha in (np.float32(0.3), Fraction(3, 10), np.array(0.3)):
        assert repr(rank_pairs(g, "katz", alpha)) == repr(rank_pairs(g, "katz", float(alpha))), alpha


def test_rankings_refuse_katz_scores_that_are_not_finite():
    # path(1200) at 0.499 overflows 1,927 Katz scores into NaN, and a NaN
    # compares false with everything, so it would hide inversions
    g = GraphSpec.path(1200)
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (agreement, class_structures_match):
            with pytest.raises(FloatingPointError, match=r"path\(1200\) at alpha = 0.499 "):
                call(g, 0.499)
            with pytest.raises(FloatingPointError, match=r"path\(1200\) at alpha = 0.499 "):
                call(g, [0.3, 0.46, 0.499, 0.2])
        with pytest.raises(FloatingPointError, match=r"path\(1200\) at alpha = 0.499 "):
            rank_pairs(g, "katz", 0.499)


def test_an_inadmissible_alpha_anywhere_fails_before_any_work(monkeypatch):
    calls = []

    def record(name):
        def fail(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return fail

    for name in ("_span_distance", "_span_resistance", "_pair_entries"):
        monkeypatch.setattr(ordering, name, record(name))
    for g, bad in ((GraphSpec.cycle(8), 0.5), (GraphSpec.path(8), 0.6), (GraphSpec.path(8), 0.0)):
        for alphas in ([bad, 0.1, 0.2], [0.1, bad, 0.2], [0.1, 0.2, bad]):
            with pytest.raises(AdmissibilityError):
                agreement(g, alphas)
            with pytest.raises(AdmissibilityError):
                class_structures_match(g, alphas)
    assert calls == []


@pytest.mark.parametrize("g", [GraphSpec.path(9), GraphSpec.cycle(9)], ids=["path", "cycle"])
def test_each_alpha_is_checked_once(g, monkeypatch, tmp_path):
    # the public routine checks its alphas; the Katz kernel under it does not
    calls = []
    check = GraphSpec._check_alpha

    def counted(graph, value):
        calls.append(value)
        return check(graph, value)

    monkeypatch.setattr(GraphSpec, "_check_alpha", counted)
    alphas = [0.1, 0.3, 0.46]
    for routine in (agreement, class_structures_match):
        calls.clear()
        routine(g, alphas)
        assert calls == alphas, routine.__name__
    calls.clear()
    rank_pairs(g, "katz", 0.3)
    assert calls == [0.3]
    calls.clear()
    argv = ["scatter", "--family", g.family, "--n", str(g.n), "--alpha", "0.46,0.1,0.3", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    assert calls == alphas


def test_a_sequence_of_alphas_holds_no_stack_of_scores_or_matrices(monkeypatch):
    # the peak of a 40-alpha sweep is within a few P-arrays of that of two
    # alphas: a block of alphas holds at most ordering.BLOCK_ENTRIES scores,
    # which one alpha of path(200) fills, and no n x n matrix is built
    monkeypatch.setattr(katz, "_matrices", lambda *args: pytest.fail("matrices called"))
    for g in (GraphSpec.path(200), GraphSpec.cycle(200)):
        alphas = [0.01 * k for k in range(5, 45)]
        peaks = []
        for sweep in (alphas[:2], alphas):
            tracemalloc.start()
            try:
                agreement(g, sweep)
                class_structures_match(g, sweep)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        pairs = g.n * (g.n - 1) // 2
        assert peaks[1] < peaks[0] + 4 * 8 * pairs, (g, peaks)


def test_cycle_ranking_does_only_span_sized_work(monkeypatch):
    # a cycle's three metrics depend on a pair only through its arc, so
    # ranking reads the n//2 arc pairs: no array of all P pairs is made
    g = GraphSpec.cycle(2000)
    alphas = [0.1, 0.3, 0.46]
    sizes = []
    entries = ordering._pair_entries

    def counted(graph, alpha, i, j):
        sizes.append(np.size(i))
        return entries(graph, alpha, i, j)

    monkeypatch.setattr(ordering, "_pair_entries", counted)
    tracemalloc.start()
    try:
        agreement(g, alphas)
        class_structures_match(g, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sizes and all(size == g.n // 2 for size in sizes)


# the two doubles nearest 1/sqrt5 on either side, and 1/sqrt5 itself
NEAR_GOLDEN = [INV_SQRT5]
for _ in range(2):
    NEAR_GOLDEN = [math.nextafter(NEAR_GOLDEN[0], 0.0), *NEAR_GOLDEN, math.nextafter(NEAR_GOLDEN[-1], 1.0)]


@pytest.mark.parametrize("n", range(2, 61))
def test_mirror_halved_path_rankings_are_those_of_every_pair(n):
    # a path is ranked on its pairs with i + j <= n + 1; the references
    # compare every pair with every other
    g = GraphSpec.path(n)
    alphas = WITNESS_ALPHAS + NEAR_GOLDEN
    assert agreement(g, alphas) == [reference_agreement(g, alpha) for alpha in alphas]
    others = [reference_classes(g, m, None) for m in ("resistance", "distance")]
    katz_classes = [reference_classes(g, "katz", alpha) for alpha in alphas]
    assert class_structures_match(g, alphas) == [all(c == k for c in others) for k in katz_classes]


def test_path_rankings_check_the_matrix_cap_before_any_pair_array(monkeypatch):
    monkeypatch.setattr(ordering, "_pair_labels", lambda *args, **kwargs: pytest.fail("pair labels built"))
    g = GraphSpec.path(katz.MATRIX_MAX_N + 1)
    for call in (agreement, class_structures_match):
        for alpha in (0.3, [0.1, 0.3]):
            with pytest.raises(katz.MatrixSizeError, match=f"n = {g.n} exceeds"):
                call(g, alpha)
    # a cycle's rankings read its n//2 arc pairs, under no cap
    assert agreement(GraphSpec.cycle(g.n), 0.3).witness is None


def test_single_metric_rankings_check_the_matrix_cap_before_any_pair_array(monkeypatch):
    monkeypatch.setattr(katz, "MATRIX_MAX_N", 50)
    monkeypatch.setattr(ordering, "_pair_labels", lambda *args, **kwargs: pytest.fail("pair labels built"))
    for g in (GraphSpec.path(51), GraphSpec.cycle(51)):
        for call in (pair_scores, rank_pairs, score_classes):
            for metric, alpha in (("distance", None), ("resistance", None), ("katz", 0.3)):
                with pytest.raises(katz.MatrixSizeError, match="n = 51 exceeds"):
                    call(g, metric, alpha)


def test_paths_agree_below_the_cutoff_root_and_invert_above_it():
    # delta = root - 1/sqrt 5 shrinks geometrically in n, so the two probes
    # sit on either side of the root at the nearest Katz ties
    for n in range(7, 51):
        delta = cutoff_root(n, 1).root - INV_SQRT5
        g = GraphSpec.path(n)
        assert agreement(g, INV_SQRT5 + delta / 2).all_agree(), n
        assert not agreement(g, INV_SQRT5 + 2 * delta).katz_vs_resistance, n


def test_single_alpha_routes_reject_a_sequence():
    g = GraphSpec.path(8)
    for alphas in ([0.1, 0.2], []):
        for call in (rank_pairs, score_classes, pair_scores):
            with pytest.raises(ValueError, match="single number"):
                call(g, "katz", alphas)


def test_alpha_shapes():
    g = GraphSpec.cycle(6)
    with pytest.raises(ValueError, match="1-D"):
        agreement(g, [[0.1, 0.2]])
    with pytest.raises(ValueError, match="1-D"):
        class_structures_match(g, np.full((2, 2), 0.1))
    assert agreement(g, []) == []
    assert class_structures_match(g, ()) == []
    assert agreement(g, [0.3]) == [agreement(g, 0.3)]
    assert isinstance(agreement(g, 0.3), AgreementReport)
    assert class_structures_match(g, 0.3) is True


def list_route_p_tilde(n, j, alpha):
    """p_tilde as the list route evaluated it: its three terms read from one d_sequence."""
    m = (n - j + 1) // 2
    seq = dpoly.d_sequence(n - j - 1, alpha)
    return seq[n - j - 1] - alpha * seq[m - 1] * seq[n - m - j - 1]


def list_route_p_gap(n, j, alpha):
    """p_gap by the list route: the two path entries' formulas on one d_sequence."""
    m = (n - j + 1) // 2
    seq = dpoly.d_sequence(n, alpha)
    first = alpha ** j * (seq[0] * seq[n - 1 - j] / seq[n])
    return first - alpha ** (j + 1) * (seq[m - 1] * seq[n - m - j - 1] / seq[n])


def list_route_cycle_gap(n, k, alpha):
    """cycle_numerator_gap by the list route: both arc numerators on one d_sequence."""
    seq = dpoly.d_sequence(n - k - 1, alpha)
    arc = alpha**k * seq[n - k - 1] + alpha ** (n - k) * seq[k - 1]
    return arc - (alpha ** (k + 1) * seq[n - k - 2] + alpha ** (n - k - 1) * seq[k])


def same(got, want):
    """Equal value and type; NaN matches NaN."""
    return type(got) is type(want) and (got == want or (got != got and want != want))


GAP_ALPHAS = sorted({k / 50 for k in range(1, 25)} | {1e-5, 0.02, INV_SQRT5, INV_SQRT5 + 1e-9, 0.49, 0.499})


def test_gap_polynomials_are_the_list_route():
    for j in (1, 2, 3, 4, 5):
        for n in range(j + 2, j + 81):
            path_alphas = [a for a in GAP_ALPHAS if a < 1.0 / spectral_radius(GraphSpec.path(n))]
            for alpha in GAP_ALPHAS + [0.5, 0.5 - 1e-12]:
                assert same(p_tilde(n, j, alpha), list_route_p_tilde(n, j, alpha)), (n, j, alpha)
            for alpha in path_alphas:
                assert same(p_gap(n, j, alpha), list_route_p_gap(n, j, alpha)), (n, j, alpha)
    for n in range(5, 81):
        for k in range(1, n // 2):
            for alpha in GAP_ALPHAS[k % 3 :: 3]:
                assert same(cycle_numerator_gap(n, k, alpha), list_route_cycle_gap(n, k, alpha)), (n, k, alpha)


@pytest.mark.parametrize("n", [247, 250, 1000, 3000])
def test_gap_polynomials_are_the_list_route_at_large_n(n):
    for alpha in GAP_ALPHAS:
        for j in (1, 2, 5):
            assert same(p_tilde(n, j, alpha), list_route_p_tilde(n, j, alpha)), (j, alpha)
            assert same(p_gap(n, j, alpha), list_route_p_gap(n, j, alpha)), (j, alpha)
        for k in (1, 2, n // 4, n // 2 - 1):
            assert same(cycle_numerator_gap(n, k, alpha), list_route_cycle_gap(n, k, alpha)), (k, alpha)


@pytest.mark.parametrize("alpha", [Fraction(1, 5), np.float64(0.3)], ids=repr)
def test_gap_polynomials_keep_the_list_route_type(alpha):
    # whatever alpha's type, the gaps are Python floats: the list route at float(alpha)
    x = float(alpha)
    for n in range(3, 20):
        for j in (1, 2):
            if n - j >= 2:
                assert same(p_tilde(n, j, alpha), list_route_p_tilde(n, j, x)), (n, j)
                assert same(p_gap(n, j, alpha), list_route_p_gap(n, j, x)), (n, j)
        for k in range(1, n // 2):
            assert same(cycle_numerator_gap(n, k, alpha), list_route_cycle_gap(n, k, x)), (n, k)


def test_cutoff_root_bisects_the_list_route(monkeypatch):
    got = [cutoff_root(n, j) for j in (1, 2, 3) for n in range(j + 5, j + 60)]
    monkeypatch.setattr(ordering, "_p_tilde", lambda n, j, m, alpha: list_route_p_tilde(n, j, alpha))
    want = [cutoff_root(n, j) for j in (1, 2, 3) for n in range(j + 5, j + 60)]
    assert got == want
    assert all(r.residual == abs(p_tilde(r.n, r.j, r.root)) for r in got)


def test_reduced_form_holds_no_d_list():
    p_tilde(12, 1, 0.01)
    tracemalloc.start()
    try:
        p_tilde(200_000, 1, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_gap_routes_check_before_the_recursion(monkeypatch):
    def ran(*args):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(ordering, "_d_terms", ran)
    for route in (p_tilde, p_gap):
        for bad_j in (0, -1, 1.5, True):
            with pytest.raises(ValueError, match="offset j must be a positive integer"):
                route(12, bad_j, 0.3)
        with pytest.raises(ValueError, match="needs n - j >= 2"):
            route(4, 3, 0.3)
        with pytest.raises(ValueError, match="needs n - j >= 2"):
            route(-3, 1, 0.3)
    with pytest.raises(TypeError, match="index must be an integer"):
        p_tilde(12.0, 1, 0.3)
    with pytest.raises(TypeError, match="vertex count must be an integer"):
        p_gap(12.0, 1, 0.3)
    with pytest.raises(AdmissibilityError):
        p_gap(12, 1, 0.6)
    # the offset is checked before admissibility, as it always was
    with pytest.raises(ValueError, match="offset j"):
        p_gap(12, 0, 0.6)
    with pytest.raises(ValueError, match="offset j must be a positive integer"):
        cutoff_root(12, 0)
    with pytest.raises(TypeError, match="index must be an integer"):
        cutoff_root(12.0, 1)
    with pytest.raises(TypeError, match="arc length must be an integer"):
        cycle_numerator_gap(12, 2.0, 0.3)
    with pytest.raises(ValueError, match="need 1 <= k < n//2"):
        cycle_numerator_gap(12, 6, 0.3)
    with pytest.raises(ValueError, match="alpha must lie in"):
        cycle_numerator_gap(12, 2, 0.5)
    with pytest.raises(TypeError, match="index must be an integer"):
        cycle_numerator_gap(12.0, 2, 0.3)
