"""Katz similarity on paths and cycles.

The entry (i, j) of the Katz matrix is the decay-weighted count of all
walks between the two vertices, sum over t >= 1 of alpha^t (A^t)_{ij},
which equals ((I - alpha A)^(-1) - I)_{ij} for admissible alpha.  This
module provides the exact closed forms in terms of the d-polynomials, two
independent brute-force oracles (dense inverse and truncated walk series),
and the n -> infinity limits of individual entries.

Each closed form is written once and evaluated on the float of alpha
that the graph's check returns (:func:`katzlab.graphs.require_admissible`,
any numeric type read as its Python float), or on float64 arrays of those
floats for values at many pairs.  This module computes in floats only:
the exact entries, the integer forms of the same entries at alpha = p/q,
are :func:`katzlab.exact.katz_path_exact` and
:func:`katzlab.exact.katz_cycle_exact`.  A tridiagonal inverse is fixed by
O(n) data (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992): per alpha a
path's d-row and row of powers (:func:`_path_rows`), a cycle's entries at
each arc length (:func:`_cycle_arcs`).  The pair values and the matrices are the same
closed forms on those rows, so they hold the scalar entries bit for bit,
with every power of alpha taken by Python's pow.  The cycle forms cover
every n >= 3, diagonal included; only the oracles touch dense linear
algebra.
"""

from __future__ import annotations

import sys

import numpy as np

from .dpoly import (
    D_cycle_denominator,
    _cycle_denominator,
    _d_terms,
    _intake,
    _number,
    _ratio_power,
    _require_below_half,
    _require_int,
    d_recursive,
    d_sequence,
)
from .graphs import GraphSpec, _checked_pair, _span_distance, require_admissible, spectral_radius
from . import linalg
from .exact import katz_cycle_exact  # not called here; kept as the name the ranking benchmark's cycle check reads

SERIES_ITERATION_CAP = 100000
# Bound on every entry of the walk series' tail after its last term.
SERIES_TOL = 1e-12

# Largest n of every route whose size grows with the pair count, checked by
# require_matrix_size: katz_path_matrix and katz_cycle_matrix (an n x n
# float64 array of at most 128 MiB; a stack of A matrices is held to the
# same total, A n^2 <= MATRIX_MAX_N^2), the rankings of ordering that hold
# the pairs, and the scatter command's table.
MATRIX_MAX_N = 4096


class SeriesDivergenceError(RuntimeError):
    """The walk series did not meet SERIES_TOL within the iteration cap."""


class MatrixSizeError(ValueError):
    """n is above MATRIX_MAX_N, or a stack of count n x n Katz matrices would exceed MATRIX_MAX_N**2 entries."""


def require_matrix_size(n: int, count: int = 1) -> None:
    """Validate count n^2 <= MATRIX_MAX_N^2, before a route sized by the pair count builds anything.

    A matrix route passes count, the number of n x n matrices it stacks;
    the rankings and scatter pass n alone, which checks n <= MATRIX_MAX_N.
    """
    if count * n * n > MATRIX_MAX_N**2:
        what = f"n = {n} exceeds" if count == 1 else f"{count} matrices of n = {n} exceed"
        raise MatrixSizeError(
            f"{what} the size cap of the routes sized by the pair count, MATRIX_MAX_N = {MATRIX_MAX_N}: the rankings "
            f"and scatter take n <= MATRIX_MAX_N, and a stack of Katz matrices at most MATRIX_MAX_N**2 entries in all "
            f"({8 * MATRIX_MAX_N**2 >> 20} MiB of float64)"
        )


def require_normal_denominator(g: GraphSpec, alpha) -> list[float]:
    """The alphas of a number or 1-D sequence as floats, each checked admissible for g and giving a normal Katz denominator.

    Every closed form of g divides by the same denominator, d_n on a path
    and D_n on a cycle.  Below sys.float_info.min it is subnormal or zero,
    and the float entries come out as nan or as zeros that the exact values
    are not (ROADMAP item 1): FloatingPointError names the first such
    alpha.  Wrong zeros where the denominator is normal, from a power of
    alpha that underflows, are not caught here.
    """
    alphas, _ = _intake(alpha, g._check_alpha)
    for value in alphas:
        denominator = d_recursive(g.n, value) if g.is_path else D_cycle_denominator(g.n, value)
        if denominator < sys.float_info.min:
            raise FloatingPointError(
                f"{g.family}({g.n}) at alpha = {value!r}: the Katz denominator {'d_n' if g.is_path else 'D_n'} = "
                f"{denominator!r} is below the smallest normal double {sys.float_info.min!r}, so its Katz cells "
                "would be nan or wrong zeros (ROADMAP item 1)"
            )
    return alphas


def _path_off_diagonal(power, head, tail, d_n):
    """Path entry i < j, alpha^(j-i) (d_{i-1} d_{n-j} / d_n), from head = d_{i-1} and tail = d_{n-j}.

    The caller passes power = alpha^(j-i), taken with Python's pow.  Like
    :func:`_path_diagonal`, evaluated on floats or numpy arrays alike.
    """
    return power * (head * tail / d_n)


def _path_diagonal(head_before, head, tail_before, tail, d_n, alpha):
    """Path entry (i, i) from head = d_{i-1}, tail = d_{n-i} and the terms one below each.

    d_{i-1} d_{n-i} / d_n - 1 is evaluated as
    alpha^2 (d_{i-1} d_{n-i-1} + d_{i-2} d_{n-i}) / d_n with d_{-1} = 0, the
    same rational value by the recursion, so small alpha loses no digits to
    the cancellation of a ratio near 1 against the 1.
    """
    return alpha * alpha * (head * tail_before + head_before * tail) / d_n


def _cycle_diagonal(d_before, power, alpha):
    """Numerator of the cycle's diagonal entry from d_before = d_{n-2} and power = alpha^n.

    The adjugate numerator d_{n-1} less the identity's share D_n, taken
    symbolically: 2 alpha^n + 2 alpha^2 d_{n-2}, so small alpha loses no
    digits to cancellation on the diagonal.
    """
    return 2 * power + 2 * alpha * alpha * d_before


def _cycle_numerator(d_short, d_long, power_short, power_long):
    """Numerator alpha^k d_{n-k-1} + alpha^(n-k) d_{k-1} of the cycle entry at arc length k >= 1.

    d_short = d_{k-1} and d_long = d_{n-k-1} weigh the walk families
    around the short and the long arc, and power_short = alpha^k and
    power_long = alpha^(n-k) the decay along each arc.  Like every power
    of alpha here, the caller takes them with Python's pow.
    """
    return power_short * d_long + power_long * d_short


def katz_path(n: int, i: int, j: int, alpha: float) -> float:
    """Closed-form Katz entry on the n-vertex path.

    For i < j: alpha^(j-i) d_{i-1} d_{n-j} / d_n.  For i = j the same
    product without the power, minus 1 (the diagonal of (I - alpha A)^(-1)
    carries the identity, which the walk sum excludes), evaluated as
    alpha^2 (d_{i-1} d_{n-i-1} + d_{i-2} d_{n-i}) / d_n with d_{-1} = 0.
    The d-terms come from one run of the recursion up to d_n, and no list
    of them is kept: O(n) time, O(1) memory.

    alpha may be anywhere in the admissible interval (0, 1/rho), which for
    short paths stretches above 0.5.
    """
    g = GraphSpec.path(n)
    alpha = require_admissible(alpha, g)
    return _path_entry(n, *_checked_pair(g, i, j), alpha)


def _path_entry(n: int, i: int, j: int, alpha: float) -> float:
    """The :func:`katz_path` entry at labels 1 <= i <= j <= n and an alpha admissible for path(n), unchecked."""
    if i - 1 > n - j:
        # the mirror pair (n + 1 - j, n + 1 - i) swaps head and tail, so its
        # products take the same factors in the other order: the same value
        i, j = n + 1 - j, n + 1 - i
    # head = d_{i-1} and tail = d_{n-j}, now in index order
    if i < j:
        head, tail, d_n = _d_terms((i - 1, n - j, n), alpha)
        return _path_off_diagonal(alpha ** (j - i), head, tail, d_n)
    # on the diagonal each also with the term one below; d_{-1} = 0
    a, b = i - 1, n - i
    head_before, head, tail_before, tail, d_n = _d_terms((a - 1 if a else 0, a, b - 1, b, n), alpha)
    return _path_diagonal(head_before if a else 0, head, tail_before if b else 0, tail, d_n, alpha)


def katz_cycle(n: int, i: int, j: int, alpha: float) -> float:
    """Closed-form Katz entry on the n-vertex cycle, for every n >= 3.

    With k = min(j - i, n - (j - i)) the arc length and D_n the cycle
    determinant (:func:`katzlab.dpoly.D_cycle_denominator`), the entry is
    (alpha^k d_{n-k-1} + alpha^(n-k) d_{k-1}) / D_n; the two summands are
    the walk families around the short and long arcs.  The diagonal is
    d_{n-1}/D_n - 1, evaluated as (2 alpha^n + 2 alpha^2 d_{n-2}) / D_n.
    Like :func:`katz_path`, O(n) time and O(1) memory.
    """
    g = GraphSpec.cycle(n)
    alpha = require_admissible(alpha, g)
    i, j = _checked_pair(g, i, j)
    return _cycle_entry(n, _span_distance(g, j - i), alpha)


def _cycle_entry(n: int, k: int, alpha: float) -> float:
    """The :func:`katz_cycle` entry at arc length 0 <= k <= n//2 and an alpha admissible for cycle(n), unchecked."""
    power = alpha**n
    if k:
        d_short, d_long, d_before, d_last = _d_terms((k - 1, n - k - 1, n - 2, n - 1), alpha)
        numerator = _cycle_numerator(d_short, d_long, alpha**k, alpha ** (n - k))
    else:
        d_before, d_last = _d_terms((n - 2, n - 1), alpha)
        numerator = _cycle_diagonal(d_before, power, alpha)
    return numerator / _cycle_denominator(d_before, d_last, power, alpha)


def _path_rows(alphas: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (A, n + 1) d-rows [d_0, ..., d_n] and (A, n) powers alpha^0, ..., alpha^(n-1) of an n-vertex path.

    One row each per alpha, a checked float from the list of
    ``_intake(alpha, g._check_alpha)``; the d-rows come from
    :func:`d_sequence` and the powers from Python's pow, so the path
    helpers on them give the scalar entries bit for bit.
    """
    d = np.array([d_sequence(n, value) for value in alphas]).reshape(len(alphas), n + 1)
    powers = np.array([[value**k for k in range(n)] for value in alphas]).reshape(len(alphas), n)
    return d, powers


def _cycle_arcs(alphas: list, n: int) -> np.ndarray:
    """The (A, n//2 + 1) Katz entries of an n-cycle at arc lengths k = 0..n//2, one row per alpha.

    The alphas are the checked floats of ``_intake(alpha, g._check_alpha)``.
    Each value is the :func:`katz_cycle` entry at its arc length bit for
    bit.
    """
    arcs = []
    for value in alphas:
        seq = d_sequence(n - 1, value)
        power = value**n
        denominator = _cycle_denominator(seq[n - 2], seq[n - 1], power, value)
        row = [_cycle_diagonal(seq[n - 2], power, value) / denominator]
        for k in range(1, n // 2 + 1):
            row.append(_cycle_numerator(seq[k - 1], seq[n - k - 1], value**k, value ** (n - k)) / denominator)
        arcs.append(row)
    return np.array(arcs).reshape(len(arcs), n // 2 + 1)


def _matrices(g: GraphSpec, alpha) -> np.ndarray:
    """The Katz matrix of g at alpha, or the (A, n, n) stack for a 1-D sequence of A alphas.

    Every alpha is checked admissible, and the stack's size against
    MATRIX_MAX_N, before it is allocated.
    """
    (alphas, many), n = _intake(alpha, g._check_alpha), g.n
    require_matrix_size(n, len(alphas))
    if g.is_path:
        d, powers = _path_rows(alphas, n)
        d_n = d[:, n:]
        stack = np.empty((len(alphas), n, n))
        for r in range(n - 1):
            # row i = r + 1 right of the diagonal, j = i + 1..n, then mirrored below it
            stack[:, r, r + 1 :] = _path_off_diagonal(powers[:, 1 : n - r], d[:, r : r + 1], d[:, n - r - 2 :: -1], d_n)
            stack[:, r + 1 :, r] = stack[:, r, r + 1 :]
        padded = np.concatenate((np.zeros((len(alphas), 1)), d), axis=1)  # padded[:, k + 1] = d_k, d_{-1} = 0
        # at i = 1..n: d_{i-2}, d_{i-1}, d_{n-i-1} and d_{n-i}
        before, head, after, tail = padded[:, :n], d[:, :n], padded[:, n - 1 :: -1], d[:, n - 1 :: -1]
        diagonal = np.arange(n)
        stack[:, diagonal, diagonal] = _path_diagonal(before, head, after, tail, d_n, np.array(alphas)[:, None])
    else:
        # each member is circulant: row 0 is the arcs mirrored (span n - k
        # reads arc k) and row i is row 0 rotated right by i, the window of
        # the doubled row that starts at n - i
        half = _cycle_arcs(alphas, n)
        row = np.concatenate((half, half[:, (n - 1) // 2 : 0 : -1]), axis=1)
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((row, row), axis=1), n, axis=1)
        stack = windows[:, n:0:-1].copy()
    return stack if many else stack[0]


def katz_pair_entries(g: GraphSpec, alpha, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Katz entries of g for the pairs with integer label arrays i < j, without an n x n matrix.

    At a number, the (P,) entries of the P pairs; at a 1-D sequence of A
    alphas, the (A, P) array whose row a is the call with alpha a alone.
    Labels that are not numpy arrays raise TypeError, labels that are not
    1-D raise ValueError (two 1-D arrays broadcast, as (1,) with (P,)),
    and every alpha is read as its Python float and checked admissible,
    before any work (:func:`katzlab.dpoly._intake` with
    :meth:`GraphSpec._check_alpha`), so a call at alpha is the call at
    float(alpha) bit for bit, whatever alpha's numeric type.  Labels of
    any integer dtype are read as int64 once checked, so a narrow dtype
    gives the int64 call's entries.  Each entry is :func:`katz_path` or
    :func:`katz_cycle` bit for bit, gathered from the O(n) rows per alpha
    of :func:`_path_rows` or :func:`_cycle_arcs`, whatever the number of
    pairs.
    """
    if not (isinstance(i, np.ndarray) and isinstance(j, np.ndarray)):
        raise TypeError(f"vertex labels must be numpy arrays, got {type(i).__name__} and {type(j).__name__}")
    if i.ndim != 1 or j.ndim != 1:
        raise ValueError(f"vertex labels must be 1-D arrays, got shapes {i.shape} and {j.shape}")
    (alphas, many), n = _intake(alpha, g._check_alpha), g.n
    if i.dtype.kind not in "iu" or j.dtype.kind not in "iu":
        raise TypeError(f"vertex labels must be integers, got dtypes {i.dtype} and {j.dtype}")
    span = np.subtract(j, i, dtype=np.int64)
    if span.size and not (span.min() > 0 and i.min() >= 1 and j.max() <= n):
        raise ValueError(f"every pair needs labels 1 <= i < j <= {n}")
    entries = _pair_entries(g, alphas, i.astype(np.int64, copy=False), j.astype(np.int64, copy=False))
    return entries if many else entries[0]


def _pair_entries(g: GraphSpec, alphas: list, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The (A, P) array of :func:`katz_pair_entries` at a list of checked float alphas and valid labels, unchecked."""
    n = g.n
    if g.is_path:
        return _path_pairs(*_path_rows(alphas, n), i, j)
    return _cycle_arcs(alphas, n).take(_span_distance(g, np.subtract(j, i, dtype=np.int64)), axis=1)


def _path_pairs(d: np.ndarray, powers: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The (A, P) path entries at valid labels i < j, by :func:`_path_off_diagonal` on the rows of :func:`_path_rows`."""
    n = powers.shape[1]
    return _path_off_diagonal(powers.take(j - i, axis=1), d.take(i - 1, axis=1), d.take(n - j, axis=1), d[:, n:])


def katz_path_matrix(n: int, alpha) -> np.ndarray:
    """Full closed-form Katz matrix for the path, diagonal included.

    For a 1-D sequence of A alphas, the (A, n, n) stack of their matrices;
    a number is the stack of one.  Each row is filled right of the diagonal
    by :func:`_path_off_diagonal` on the rows of :func:`_path_rows` and
    mirrored below it, and the diagonal comes from :func:`_path_diagonal`:
    every entry is :func:`katz_path` bit for bit, the same operations on
    the same operands, and the stack is all the memory it takes.  Every
    alpha must be admissible, and the stack may hold at most
    MATRIX_MAX_N**2 entries (MatrixSizeError); both are checked before it
    is allocated.
    """
    return _matrices(GraphSpec.path(n), alpha)


def katz_cycle_matrix(n: int, alpha) -> np.ndarray:
    """Full closed-form Katz matrix for the cycle (n >= 3), diagonal included.

    For a 1-D sequence of A alphas, the (A, n, n) stack, as for
    :func:`katz_path_matrix`.  Each matrix is circulant: entry (i, j)
    depends only on the span (j - i) mod n, through the arc length
    k = min(span, n - span).  Its first row holds the :func:`_cycle_arcs`
    entries at k = 0..n//2, mirrored, and every row is a rotation of it, a
    window of the doubled row, so every entry is :func:`katz_cycle` bit for
    bit.
    """
    return _matrices(GraphSpec.cycle(n), alpha)


def _system(g: GraphSpec, alpha) -> np.ndarray:
    """I - alpha A, or its stack (len(alpha), n, n) for a 1-D sequence of alphas.

    Every alpha must be admissible for g.
    """
    alphas, many = _intake(alpha, g._check_alpha)
    system = np.array(alphas if many else alphas[0])[..., None, None] * g.adjacency()
    return np.subtract(np.eye(g.n), system, out=system)


def katz_oracle_inverse(g: GraphSpec, alpha) -> np.ndarray:
    """Katz matrix by brute force: invert I - alpha A, subtract I.

    For a 1-D sequence of alphas, the stack of their matrices from one
    stacked elimination.
    """
    matrix = linalg.invert(_system(g, alpha))
    matrix -= np.eye(g.n)
    return matrix


def katz_oracle_series(g: GraphSpec, alpha) -> np.ndarray:
    """Katz matrix by summing the walk series alpha^t A^t, t = 1..T, by doubling.

    With P_T = (alpha A)^T and S_T the sum of its first T terms,
    S_2T = S_T + P_T S_T and P_2T = P_T^2, from S_1 = P_1 = alpha A: log2(T)
    steps of two matrix products each.  A is symmetric, so
    ||(alpha A)^t||_2 = (alpha rho)^t, and every entry of the tail after T
    terms is at most (alpha rho)^(T+1) / (1 - alpha rho).  T is the first
    power of two that puts that bound below SERIES_TOL, fixed before the
    loop; SeriesDivergenceError is raised, before any n x n work, where T
    would exceed SERIES_ITERATION_CAP.

    For a 1-D sequence of alphas, the stack of their lone calls.
    """
    alphas, many = _intake(alpha, g._check_alpha)
    rho = spectral_radius(g)
    doublings = []
    for value in alphas:
        ratio = value * rho
        terms = 1
        while ratio ** (terms + 1) / (1.0 - ratio) >= SERIES_TOL:
            terms *= 2
            if terms > SERIES_ITERATION_CAP:
                raise SeriesDivergenceError(
                    f"walk series needs more than {SERIES_ITERATION_CAP} terms to bound its tail below "
                    f"SERIES_TOL = {SERIES_TOL}; alpha = {value} is too close to 1/rho = {1.0 / rho:.6g}"
                )
        doublings.append(terms.bit_length() - 1)
    powers = np.array(alphas)[:, None, None] * g.adjacency()
    totals = powers.copy()
    for power, total, steps in zip(powers, totals, doublings):
        for step in range(steps):
            if step:
                power = power @ power
            total += power @ total
    return totals if many else totals[0]


def katz_limit_path(i: int, j: int, alpha: float) -> float:
    """Limit of katz_path(n, i, j, alpha) as n -> infinity.

    katz_path's forms at d_n = 1 with each ratio d_{n-m}/d_n at its limit c^m,
    c = 2/(1 + sqrt(1 - 4 alpha^2)): alpha^(j-i) d_{i-1} c^j for i < j, and
    c^i d_{i-1} - 1 on the diagonal, taken as alpha^2 (d_{i-1} c^(i+1) + d_{i-2} c^i)
    with d_{-1} = 0, so small alpha loses no digits.  alpha must lie in (0, 1/2), the
    limit's whole range: a path's 1/rho_n = 1/(2 cos(pi/(n+1))) falls to 1/2 as n grows.
    """
    for label in (i, j):
        _require_int(label, "vertex labels must be integers")
    alpha = _number(alpha, _require_below_half)
    c = _ratio_power(-1, alpha)
    if not 1 <= i <= j:
        raise ValueError(f"need 1 <= i <= j, got ({i}, {j})")
    head_before, head = _d_terms((max(i - 2, 0), i - 1), alpha)
    if i < j:
        return _path_off_diagonal(alpha ** (j - i), head, c**j, 1.0)
    return _path_diagonal(head_before if i > 1 else 0, head, c ** (i + 1), c**i, 1.0, alpha)


def katz_limit_cycle(offset: int, alpha: float) -> float:
    """Limit of katz_cycle(n, i, i + offset, alpha) as n -> infinity.

    With c = 2/(1 + sqrt(1 - 4 alpha^2)) and q = offset:

        alpha^q c^(q-2) (1 - alpha^4 c^4) / (1 - 4 alpha^2).

    One expression covers both parities of q: c satisfies c = 1 + (alpha c)^2,
    which collapses the separate even/odd forms into the same value.  Checked
    against large-n oracle entries (odd offsets included) in the test suite.
    alpha must lie in (0, 1/2), the whole admissible range: a cycle's 1/rho is 1/2.
    """
    _require_int(offset, "offset must be an integer")
    if offset < 1:
        raise ValueError(f"offset must be >= 1, got {offset}")
    alpha = _number(alpha, _require_below_half)
    c = _ratio_power(-1, alpha)
    return alpha**offset * c ** (offset - 2) * (1.0 - alpha**4 * c**4) / (1.0 - 4.0 * alpha * alpha)


def determinant_path(n: int, alpha):
    """det(I - alpha A) for the path, by elimination (oracle for d_n).

    A float, or an array over a 1-D sequence of admissible alphas.
    """
    return linalg.determinant(_system(GraphSpec.path(n), alpha))


def determinant_cycle(n: int, alpha):
    """det(I - alpha A) for the cycle, by elimination (oracle for D_n).

    A float, or an array over a 1-D sequence of admissible alphas.
    """
    return linalg.determinant(_system(GraphSpec.cycle(n), alpha))
