"""Pair rankings under Katz similarity, effective resistance, and distance.

A ranking prefers higher Katz but lower resistance and lower distance.  Two
metrics *agree* when no strict preference under one is strictly reversed by
the other; refining a tie is not a disagreement.  (Resistance ties every
equal-distance pair on a path while Katz splits those ties at any decay
value, so demanding identical tie classes would call the metrics
"disagreeing" even in the regime where every cross-class comparison
matches.  The inversion-free criterion is what the ranking statements
actually assert, and the tie-class comparison is exposed separately via
:func:`score_classes` / :func:`class_structures_match` for the cycle case,
where the classes genuinely coincide.)

All three metrics on a cycle depend on a pair only through its arc, the
distance of its span, so the cycle rankings read them on the n//2 arc
pairs (1, 1 + k), k = 1..n//2, the pairs scatter reads.  A span s > n/2
would repeat arc n - s: the same Katz bits and distance class, later in
pair order, so it could neither be an inversion's first pair nor split a
tie class.  A path's rankings read its pairs with i + j <= n + 1 for the
same reason: the pair (i, j) beyond them is the mirror image of
(n + 1 - j, n + 1 - i), which comes earlier, with the same bits and class.
A cycle's agreement and tie classes take O(n) time, with no sort and no
work of the size of its P = n(n-1)/2 pairs, and agreement compares a
path's Katz scores with their distance classes in O(P) per alpha, with no
sort of the pairs.  Over a list of alphas, checked once up front, both take
the Katz scores in blocks of up to BLOCK_ENTRIES, one katz._pair_entries
call per block, and decide each block with whole-block array calls.

Resistance and distance share one strict order, so Katz is ranked against
the distance classes alone: the integers d - 1, best first, with no
resistance table built per call.  On a path R is D bit for bit.  On a
cycle R = k(n - k)/n rises by at least 1/n per arc k, far above the
absolute TIE_TOL of an inversion, and by a relative step of at least
4/n**2, above the relative TIE_TOL of the tie classes for n < 632,456.
From there on an even cycle TIE_TOL merges the top two resistance classes,
but the Katz arcs have underflowed into merged classes too, so
class_structures_match is False either way.

Also here: the gap polynomials whose sign tracks whether a distance-j pair
can be out-ranked by a distance-(j+1) pair on a path, and bisection to one
fixed width for the decay cut-off in (1/sqrt 5, 1/2) where that first happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dpoly import INV_SQRT5, _at, _d_terms, _require_below_half, _require_int
from .graphs import (
    GraphSpec,
    VertexPair,
    _admissible_alphas,
    _pair_labels,
    _span_distance,
    _span_resistance,
    require_admissible,
    resistance,
)
from .katz import _cycle_numerator, _pair_entries, _path_off_diagonal, require_matrix_size

KATZ = "katz"
RESISTANCE = "resistance"
DISTANCE = "distance"
METRICS = (KATZ, RESISTANCE, DISTANCE)

# Scores within this relative gap are one tie class, and a strict preference
# needs an absolute gap above it.  Scores equal in theory, such as cycle pairs
# on equal-length arcs, need no tolerance: they are equal bit for bit
# (tests/test_katz.py::test_entries_equal_in_theory_are_equal_in_bits), so
# the tolerance now acts only between scores that truly differ.  ROADMAP
# item 14 retires it.
TIE_TOL = 1e-11

# Most Katz scores, float64 entries, that a ranking holds per block of
# alphas: a block takes as many alphas as fit, and always at least one.
# Every verify graph takes its whole alpha grid in one block (at most 35
# alphas on 225 pairs), and path(200), ranked on its 10,000 mirror-halved
# pairs, one alpha a block.
BLOCK_ENTRIES = 2**14

BRACKET_LO = INV_SQRT5
BRACKET_HI = 0.5
# cutoff_root bisects while its bracket, at most 0.053 wide, is wider than
# this: within 46 halvings, as 0.053 / 2**46 < 1e-15.  Doubles near the root
# are 5.6e-17 apart, so each midpoint of a wider bracket lies strictly inside.
BISECTION_WIDTH = 1e-15
BISECTION_ITERATION_CAP = 200  # a bound on those 46 iterations


@dataclass(frozen=True)
class PairRanking:
    """All unordered pairs of one graph, best-first under one metric."""

    graph: GraphSpec
    metric: str
    alpha: Optional[float]
    entries: tuple[tuple[VertexPair, float], ...]


@dataclass(frozen=True)
class RankingInversion:
    """A strict preference reversal between two metrics.

    metric_a strictly prefers pair_a over pair_b while metric_b strictly
    prefers pair_b over pair_a; scores_a/scores_b hold (pair_a, pair_b)
    scores under the respective metric.
    """

    metric_a: str
    metric_b: str
    pair_a: VertexPair
    pair_b: VertexPair
    scores_a: tuple[float, float]
    scores_b: tuple[float, float]


@dataclass(frozen=True)
class AgreementReport:
    graph: GraphSpec
    alpha: float
    katz_vs_resistance: bool
    katz_vs_distance: bool
    resistance_vs_distance: bool
    witness: Optional[RankingInversion]

    def all_agree(self) -> bool:
        return self.katz_vs_resistance and self.katz_vs_distance and self.resistance_vs_distance


def _scores(g: GraphSpec, metric: str, alpha: Optional[float]) -> np.ndarray:
    """Scores for g.pairs() in lexicographic pair order, as a float array.

    The metric, Katz's one alpha (a sequence raises ValueError) and g's n
    against the Katz matrix cap (MatrixSizeError) are checked before any
    array of the P pairs is built.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == KATZ and alpha is None:
        raise ValueError("the katz metric needs an alpha value")
    alpha = require_admissible(alpha, g) if metric == KATZ else None
    require_matrix_size(g.n)
    i, j = _pair_labels(g.n)
    if metric == KATZ:
        return _katz_scores(g, [alpha], i, j)[0]
    span = j - i  # the labels are the package's own, so unchecked
    return _span_resistance(g, span) if metric == RESISTANCE else _span_distance(g, span) + 0.0


def _keys(metric: str, scores: np.ndarray) -> np.ndarray:
    """Scores mapped so that smaller always means more preferred."""
    return -scores if metric == KATZ else scores


def pair_scores(g: GraphSpec, metric: str, alpha: Optional[float] = None) -> list[float]:
    """Scores for g.pairs() in lexicographic pair order."""
    return _scores(g, metric, alpha).tolist()


def _best_first(metric: str, scores: np.ndarray) -> np.ndarray:
    """Pair indices best-first; g.pairs() is lexicographic, so the stable sort
    breaks exact score ties by (i, j)."""
    return np.argsort(_keys(metric, scores), kind="stable")


def rank_pairs(g: GraphSpec, metric: str, alpha: Optional[float] = None) -> PairRanking:
    """Pairs sorted best-first; exact score ties break (i, j) lexicographically."""
    scores = _scores(g, metric, alpha)
    pairs = g.pairs()
    values = scores.tolist()
    entries = tuple((pairs[ix], values[ix]) for ix in _best_first(metric, scores).tolist())
    return PairRanking(g, metric, float(alpha) if metric == KATZ else None, entries)


def _ranked_classes(metric: str, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-first pair order and the tie-class number at each rank (see score_classes).

    scores is an (A, P) block, and each row is ranked as that row alone.
    """
    order = _best_first(metric, scores)
    ranked = scores.take(order + np.arange(0, scores.size, scores.shape[1])[:, None])
    prev, cur = ranked[:, :-1], ranked[:, 1:]
    boundary = np.abs(cur - prev) > TIE_TOL * np.maximum(np.abs(cur), np.abs(prev))
    ids = np.zeros(scores.shape, dtype=np.intp)
    np.cumsum(boundary, axis=1, out=ids[:, 1:])
    return order, ids


def score_classes(g: GraphSpec, metric: str, alpha: Optional[float] = None) -> list[set[VertexPair]]:
    """Tie classes best-first: consecutive ranked scores within TIE_TOL merge.

    Ties are judged relative to the larger magnitude: theoretically-equal
    scores come out of one vectorized expression and match to the last
    bit, while genuinely distinct Katz classes on a large cycle at small
    decay sit many orders of magnitude apart yet all below any fixed
    absolute tolerance, which would merge them spuriously.
    """
    order, ids = _ranked_classes(metric, _scores(g, metric, alpha)[None])
    pairs = g.pairs()
    classes: list[set[VertexPair]] = [set() for _ in range(int(ids[0, -1]) + 1)]
    for ix, class_id in zip(order[0].tolist(), ids[0].tolist()):
        classes[class_id].add(pairs[ix])
    return classes


def _katz_scores(g: GraphSpec, alphas: list, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The (A, P) Katz scores of the pairs i < j at a list of alphas already checked admissible.

    FloatingPointError, naming the first alpha whose scores are not all
    finite: no ranking can order a NaN or an inf.
    """
    katz = _pair_entries(g, alphas, i, j)
    if not np.isfinite(katz).all():
        bad = alphas[int(np.isfinite(katz).all(axis=1).argmin())]
        raise FloatingPointError(f"Katz scores of {g.family}({g.n}) at alpha = {bad} are not all finite")
    return katz


def _katz_rows(g: GraphSpec, alphas: list):
    """The pairs that Katz is ranked on, each one's distance class, and its Katz scores in blocks of alphas.

    Returns labels i, j, the distance classes j - i - 1 (integers, best
    first; None for a cycle, whose arc pair k alone is in class k - 1, in
    pair order) and a generator of score blocks, in the order of alphas: each
    is the (A', P') array of the next A' alphas from one _pair_entries
    call, with A' P' at most BLOCK_ENTRIES unless A' = 1.
    A path keeps, in g.pairs() order, its pairs with i + j <= n + 1.  Each
    other pair (i, j) has its mirror image (n + 1 - j, n + 1 - i) earlier
    in that order, with the same Katz bits and the same distance class, so
    it can neither be the first pair of an inversion nor the first partner
    of one, nor split a tie class.  A path's n is checked against the Katz
    matrix cap first (MatrixSizeError), before any array of its pairs.  A
    cycle, whose metrics are arc-valued, keeps its n//2 arc pairs
    (1, 1 + k), k = 1..n//2, at distance k.
    """
    if g.is_path:
        require_matrix_size(g.n)
        i, j = _pair_labels(g.n, mirror_half=True)
        classes = j - i - 1
    else:
        i, j, classes = np.ones(g.n // 2, dtype=np.int64), np.arange(2, g.n // 2 + 2), None
    width = max(1, BLOCK_ENTRIES // i.size)
    blocks = (_katz_scores(g, alphas[lo : lo + width], i, j) for lo in range(0, len(alphas), width))
    return i, j, classes, blocks


def class_structures_match(g: GraphSpec, alpha):
    """True when all three metrics produce identical best-first tie classes.

    For a 1-D sequence of alphas, the list of results, one per alpha.
    Katz's classes are compared with the distance classes, best-first
    class d - 1 at distance d, which are the resistance classes too (see
    the module docstring).  A cycle's Katz classes are found on its n//2
    arc pairs, with no P-sized work and no sort: each arc is its own
    distance class, so they match exactly when Katz falls by more than the
    tie tolerance from each arc to the next.  A path's are found on its
    mirror-halved pairs (see _katz_rows), each block of alphas ranked row
    by row with one stable sort.
    """
    alphas, many = _admissible_alphas(alpha, g)
    _, _, classes, blocks = _katz_rows(g, alphas)
    matches = []
    for katz in blocks:
        if classes is None:
            # the stable sort would keep arc order, with a new class at every
            # arc, exactly when each step is a boundary of _ranked_classes
            prev, cur = katz[:, :-1], katz[:, 1:]
            matched = prev - cur > TIE_TOL * np.maximum(np.abs(cur), np.abs(prev))
        else:
            order, ids = _ranked_classes(KATZ, katz)
            matched = np.equal(ids, classes[order])
        matches.extend(matched.all(axis=1).tolist())
    return matches if many else matches[0]


def _first_inversion(keys: np.ndarray, classes: Optional[np.ndarray]) -> list[Optional[tuple[int, int]]]:
    """Per row of keys, the first (a, b) in row-major order with a strictly before b under A and b in a better class.

    classes holds each pair's distance class, an integer, best first, so
    B strictly prefers b to a exactly when classes[b] < classes[a]:
    distances lie at least 1 apart, far above TIE_TOL, so B needs no
    tolerance.  keys is an (A', P) block, a row of keys under A per
    alpha.  Strictly under A means by more than TIE_TOL: keys[r, a] <
    keys[r, b] - TIE_TOL.  So a has a partner exactly when the largest
    keys[r] - TIE_TOL over the classes better than its own exceeds
    keys[r, a]: a per-class maximum and its exclusive prefix maxima give
    each class's threshold, and one comparison per pair finds a, in O(P +
    C) time and O(P) memory per row.  One maximum.at, running maximum and
    comparison serve the whole block, and only the rows with a hit look
    for their b.  Every comparison is the float expression above, and a
    maximum does not round, so each row's result is exactly that of a
    P x P scan: (a, b), or None where no pair has a partner.  classes
    None puts pair k alone in class k, a cycle's arcs: the classes better
    than a's are the pairs before it, and the running maximum of keys -
    TIE_TOL alone gives each threshold, with no per-class maximum.
    """
    u = keys - TIE_TOL
    if classes is None:
        threshold = np.full(keys.shape, -np.inf)
        np.maximum.accumulate(u[:, :-1], axis=1, out=threshold[:, 1:])
        has_partner = threshold > keys
    else:
        rows, count = len(keys), int(classes.max()) + 2
        # of each row's count entries, entry c + 1 takes class c's maximum;
        # after the running maximum, entry c holds the maximum over the
        # classes better than c, -inf for class 0
        reach = np.full(rows * count, -np.inf)
        # with 1-D operands: ufunc.at takes a far slower route for 2-D ones
        np.maximum.at(reach, (np.arange(1, rows * count, count)[:, None] + classes).ravel(), u.ravel())
        threshold = np.maximum.accumulate(reach.reshape(rows, count), axis=1)
        has_partner = threshold.take(classes, axis=1) > keys
    hits = []
    for row, a_ix in enumerate(has_partner.argmax(axis=1).tolist()):
        if not has_partner[row, a_ix]:
            hits.append(None)
            continue
        if classes is None:
            b_ix = int((keys[row, a_ix] < u[row, :a_ix]).argmax())
        else:
            b_ix = int(((keys[row, a_ix] < u[row]) & (classes < classes[a_ix])).argmax())
        hits.append((a_ix, b_ix))
    return hits


def agreement(g: GraphSpec, alpha):
    """Pairwise ranking agreement between the three metrics at one alpha.

    Decides every pair-of-pairs: a path's over its mirror-halved pairs, a
    cycle's over its n//2 arc pairs (1, 1 + k), which stand for all P =
    n(n-1)/2 pairs (see _katz_rows and the module docstring).  The witness
    is the first inversion among those pairs in lexicographic (pair_a,
    pair_b) order.
    Resistance and distance never invert each other, and R[a] > R[b] +
    TIE_TOL exactly when D[a] > D[b] (see the module docstring), so one
    inversion per alpha, of Katz against the distance classes, decides the
    report; its witness is named (katz, resistance).  A cycle's comparison
    takes O(n) time on its n//2 arc pairs, a path's O(P) time and memory
    per alpha, with no sort of the pairs.  For a 1-D sequence of alphas,
    the list of reports, one per alpha, decided a block of alphas at a
    time (see _first_inversion).  No n x n matrix.
    """
    alphas, many = _admissible_alphas(alpha, g)
    i, j, classes, blocks = _katz_rows(g, alphas)
    reports = []
    for katz in blocks:
        for value, scores, hit in zip(alphas[len(reports) :], katz, _first_inversion(_keys(KATZ, katz), classes)):
            witness = None
            if hit is not None:
                both = list(hit)
                witness = RankingInversion(
                    KATZ,
                    RESISTANCE,
                    *(VertexPair(int(i[ix]), int(j[ix])) for ix in both),
                    tuple(scores[both].tolist()),
                    tuple(resistance(g, i[both], j[both]).tolist()),
                )
            reports.append(AgreementReport(g, value, hit is None, hit is None, True, witness))
    return reports if many else reports[0]


def _gap_midpoint(n: int, j: int) -> int:
    """The gap routines' m = ceil((n - j)/2), after checking j, then n (with GraphSpec's text), then n - j >= 2."""
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"offset j must be a positive integer, got {j!r}")
    _require_int(n, "vertex count must be an integer")
    if n - j < 2:
        raise ValueError(f"gap polynomial needs n - j >= 2, got n = {n}, j = {j}")
    return (n - j + 1) // 2


def p_gap(n: int, j: int, alpha: float) -> float:
    """Worst-case Katz gap between distance-j and distance-(j+1) path pairs.

    katz(1, 1+j) - katz(m, m+j+1) with m = ceil((n-j)/2): the weakest
    distance-j pair sits at the boundary, the strongest distance-(j+1) pair
    at the center.  Positive means the distance classes stay separated.
    For a 1-D sequence of alphas, every one checked admissible first, the
    array of the calls at each, bit for bit, from one run of the recursion.
    """
    m = _gap_midpoint(n, j)
    g = GraphSpec.path(n)
    x, one, power = _at(alpha, g._check_alpha)
    # the entries (1, 1 + j) and (m, m + j + 1) read these terms, in index order
    d_0, tail, head, top, d_n = _d_terms((0, n - m - j - 1, m - 1, n - j - 1, n), x, one)
    return _path_off_diagonal(power(j), d_0, top, d_n) - _path_off_diagonal(power(j + 1), head, tail, d_n)


def _p_tilde(n: int, j: int, m: int, alpha: float) -> float:
    """p_tilde at checked n and j, with m = _gap_midpoint(n, j).

    alpha may be an array of alphas: its product broadcasts a term that is
    d_0 = d_1 = 1.0 to the shape of the others.
    """
    tail, head, top = _d_terms((n - m - j - 1, m - 1, n - j - 1), alpha)
    return top - alpha * head * tail


def p_tilde(n: int, j: int, alpha: float) -> float:
    """Sign-equivalent reduction of :func:`p_gap`.

    d_{n-j-1} - alpha d_{m-1} d_{n-m-j-1} with m = ceil((n-j)/2); shares the
    sign of p_gap everywhere but is a plain polynomial, which makes it the
    bisection target for cut-off roots.  For a 1-D sequence of alphas, the
    array of the calls at each, bit for bit, as for :func:`p_gap`.
    """
    m = _gap_midpoint(n, j)
    return _p_tilde(n, j, m, _at(alpha)[0])


class BracketError(RuntimeError):
    """The bisection bracket endpoints do not straddle a sign change."""


@dataclass(frozen=True)
class CutoffResult:
    """A converged bisection run on p_tilde(n, j, .)."""

    n: int
    j: int
    bracket_lo: float
    bracket_hi: float
    root: float
    iterations: int
    residual: float


def cutoff_root(n: int, j: int) -> CutoffResult:
    """Bisection root of p_tilde(n, j, .) on (1/sqrt 5, 1/2).

    Endpoints start nudged inward by 1e-12 so both evaluations are
    sign-determinate.  The root approaches the left endpoint geometrically
    in n (it sits within 1e-12 of 1/sqrt 5 once n - j >= 54), so when the
    left probe lands at or past the root (reads <= 0) the nudge is shrunk
    by factors of 10 down to one ulp until the probe is positive again;
    bracket_lo records the endpoint actually used.  Raises BracketError
    when no sign change can be established, which is the expected outcome
    for n - j < 5 and where the left value reads exactly zero at the
    smallest nudge; bisection stops at BISECTION_WIDTH.  n and j are
    checked once, before the first evaluation; the residual is
    |p_tilde(n, j, root)|.
    """
    m = _gap_midpoint(n, j)
    hi = BRACKET_HI - 1e-12
    nudge = 1e-12
    lo = BRACKET_LO + nudge
    f_lo = _p_tilde(n, j, m, lo)
    while f_lo <= 0.0 and nudge > 1e-16:
        nudge /= 10.0
        lo = max(BRACKET_LO + nudge, math.nextafter(BRACKET_LO, BRACKET_HI))
        f_lo = _p_tilde(n, j, m, lo)
    f_hi = _p_tilde(n, j, m, hi)
    if not (f_lo > 0.0 > f_hi):
        raise BracketError(
            f"no sign change for n = {n}, j = {j}: "
            f"p_tilde({lo:.17g}) = {f_lo:.3e}, p_tilde({hi:.17g}) = {f_hi:.3e}"
            + (" (n - j < 5 has no root here)" if n - j < 5 else "")
        )
    bracket_lo, bracket_hi = lo, hi
    iterations = 0
    while hi - lo > BISECTION_WIDTH:
        iterations += 1
        mid = 0.5 * (lo + hi)
        f_mid = _p_tilde(n, j, m, mid)
        if f_mid > 0.0:
            lo = mid
        elif f_mid < 0.0:
            hi = mid
        else:
            lo = hi = mid
    root = 0.5 * (lo + hi)
    return CutoffResult(n, j, bracket_lo, bracket_hi, root, iterations, abs(_p_tilde(n, j, m, root)))


def _require_bracketed(n: int, j: int) -> None:
    """Validate n - j >= 5, below which p_tilde(n, j, .) has no root to bracket in (1/sqrt 5, 1/2)."""
    if n - j < 5:
        raise ValueError(f"n - j must be >= 5 for a bracketed root; got n = {n}, j = {j}")


def cutoff_table(j: int, n_range) -> list[CutoffResult]:
    """cutoff_root, bisected to BISECTION_WIDTH, for every n in n_range (each must satisfy n - j >= 5)."""
    ns = list(n_range)
    for n in ns:
        _require_bracketed(n, j)
    return [cutoff_root(n, j) for n in ns]


def cycle_numerator_gap(n: int, k: int, alpha: float) -> float:
    """Numerator difference between arc classes k and k+1 on the n-cycle.

    alpha^k d_{n-k-1} + alpha^(n-k) d_{k-1} - alpha^(k+1) d_{n-k-2}
    - alpha^(n-k-1) d_k; positive exactly when arc-k pairs out-rank
    arc-(k+1) pairs under Katz.  alpha lies in (0, 1/2), a cycle's whole
    admissible range (1/rho = 1/2); for a 1-D sequence of alphas, every one
    checked first, the array of the calls at each, bit for bit, as p_gap.
    """
    _require_int(n, "vertex count must be an integer")
    _require_int(k, "arc length must be an integer")
    if not 1 <= k < n // 2:
        raise ValueError(f"need 1 <= k < n//2, got k = {k}, n = {n}")
    x, one, power = _at(alpha, _require_below_half)
    d_short, d_short_next, d_long_next, d_long = _d_terms((k - 1, k, n - k - 2, n - k - 1), x, one)
    return _cycle_numerator(d_short, d_long, power(k), power(n - k)) - _cycle_numerator(
        d_short_next, d_long_next, power(k + 1), power(n - k - 1)
    )
