"""Path and cycle graphs with 1-based vertex labels.

Provides the three per-graph quantities everything else consumes: the
adjacency spectral radius (which fixes the admissible decay interval),
hop distance between vertices, and effective resistance.  Closed forms are
paired with brute-force oracles: power iteration for the radius and a
Laplacian-pseudoinverse solve for resistance.  A graph checks one alpha
against its interval (0, 1/rho) with its method ``_check_alpha``, the
check every admissible route hands to the alpha intake of
:mod:`katzlab.dpoly`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dpoly import _intake, _number, _require_int

PATH = "path"
CYCLE = "cycle"
FAMILIES = (PATH, CYCLE)
# Each family's smallest n: a path needs one edge, a cycle three vertices.
_SMALLEST_N = {PATH: 2, CYCLE: 3}

_POWER_ITERATION_TOL = 1e-13
# squarings of A + 2I: the last leaves v = (A + 2I)^(2^64 - 1) 1, normalised
_POWER_ITERATION_CAP = 64


class AdmissibilityError(ValueError):
    """The decay parameter lies outside the open interval (0, 1/rho(A))."""


class PowerIterationError(RuntimeError):
    """Power iteration did not meet its residual tolerance within its iteration cap."""


@dataclass(frozen=True)
class GraphSpec:
    """A path or cycle graph; vertices are labeled 1..n."""

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        _require_int(self.n, "vertex count must be an integer")
        if self.n < _SMALLEST_N[self.family]:
            raise ValueError(f"{self.family} graphs need n >= {_SMALLEST_N[self.family]}, got {self.n}")

    @classmethod
    def path(cls, n: int) -> "GraphSpec":
        return cls(PATH, n)

    @classmethod
    def cycle(cls, n: int) -> "GraphSpec":
        return cls(CYCLE, n)

    @property
    def is_path(self) -> bool:
        return self.family == PATH

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix; vertex v maps to row/column v - 1."""
        a = np.zeros((self.n, self.n))
        idx = np.arange(self.n - 1)
        a[idx, idx + 1] = 1.0
        a[idx + 1, idx] = 1.0
        if self.family == CYCLE:
            a[0, self.n - 1] = 1.0
            a[self.n - 1, 0] = 1.0
        return a

    def pairs(self) -> list["VertexPair"]:
        """All unordered vertex pairs i < j in lexicographic order."""
        return [VertexPair(i, j) for i in range(1, self.n) for j in range(i + 1, self.n + 1)]

    def check_vertex(self, v: int) -> None:
        _require_int(v, "vertex label must be an integer")
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def _check_alpha(self, value) -> None:
        """Check that value lies in (0, 1/rho(A)) (AdmissibilityError), as the intake of :mod:`katzlab.dpoly` calls it.

        value is the intake's float, or on the exact routes a Fraction or
        Decimal, which compares exactly with the float bound; NaN fails.
        """
        bound = 1.0 / spectral_radius(self)
        if not 0.0 < value < bound:
            raise AdmissibilityError(
                f"alpha {value} is not admissible for {self.family}({self.n}): requires 0 < alpha < {bound:.6g}"
            )


@dataclass(frozen=True, order=True)
class VertexPair:
    """An unordered vertex pair, normalized so i <= j."""

    i: int
    j: int

    @classmethod
    def of(cls, i: int, j: int) -> "VertexPair":
        return cls(min(i, j), max(i, j))


def _pair_labels(n: int, mirror_half: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Labels i < j of the n(n-1)/2 pairs of an n-vertex graph, in g.pairs() order.

    Row i holds the n - i pairs (i, i + 1) .. (i, n), so the labels follow
    from the row offsets alone, with no n x n index mask.  With mirror_half,
    only the pairs with i + j <= n + 1, the n - 2i + 1 pairs
    (i, i + 1) .. (i, n + 1 - i) of each row: of a pair and its mirror
    image (n + 1 - j, n + 1 - i) on a path, the one that comes first.
    """
    row_sizes = np.arange(n - 1, 0, -2 if mirror_half else -1)
    rows = np.arange(1, row_sizes.size + 1)
    i = np.repeat(rows, row_sizes)
    # pair k of the row of i, which starts at offset s, is (i, k - s + i + 1)
    shift = np.cumsum(row_sizes) - row_sizes - rows - 1
    return i, np.arange(i.size) - np.repeat(shift, row_sizes)


def _pair_label_blocks(n: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The labels of :func:`_pair_labels` (n) in consecutive blocks of at most size pairs, O(n + size) memory.

    A block [lo, hi) of the pair order covers the rows whose offsets meet
    it, each as many times as it has pairs in the block, as in
    _pair_labels; only the first and last rows can be cut.
    """
    row_sizes = np.arange(n - 1, 0, -1)
    ends = np.cumsum(row_sizes)
    starts = ends - row_sizes
    shift = starts - np.arange(2, n + 1)  # pair k of the row of i is (i, k - shift)
    total = n * (n - 1) // 2
    for lo in range(0, total, size):
        hi = min(lo + size, total)
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right").tolist()
        rows = slice(first, last + 1)
        counts = np.minimum(ends[rows], hi) - np.maximum(starts[rows], lo)
        yield np.repeat(np.arange(first + 1, last + 2), counts), np.arange(lo, hi) - np.repeat(shift[rows], counts)


def require_admissible(value, g: GraphSpec) -> float:
    """The float of one number value, checked to lie in 0 < value < 1/rho(A) (AdmissibilityError).

    value is read by :func:`katzlab.dpoly._intake`: any numeric type is
    checked by :meth:`GraphSpec._check_alpha`, and returned, as its Python
    float, and a sequence raises ValueError.  Every closed form of g, float
    or exact, holds on the whole interval; the exact routes check alpha's
    exact value on it with the same method
    (:func:`katzlab.dpoly._exact_alpha`).  For paths it stretches above
    1/2, where the d-polynomial bounds and the n -> infinity limits do not
    hold, so those check (0, 1/2) instead.
    """
    return _number(value, g._check_alpha)


def _admissible_alphas(alpha, g: GraphSpec) -> tuple[list, bool]:
    """The alphas of a number or 1-D sequence as floats, each checked admissible for g, and whether it is a sequence."""
    x, many = _intake(alpha, g._check_alpha)
    return x if many else [x], many


def spectral_radius(g: GraphSpec) -> float:
    """2 cos(pi/(n+1)) for paths; exactly 2 for cycles."""
    if g.is_path:
        return 2.0 * math.cos(math.pi / (g.n + 1))
    return 2.0


def spectral_radius_oracle(g: GraphSpec) -> float:
    """Largest adjacency eigenvalue by power iteration (Rayleigh quotient).

    Brute-force cross-check for :func:`spectral_radius`.  Iterates on
    B = A + 2I rather than A: paths are bipartite, so A alone has a -rho
    eigenvalue of equal magnitude and the unshifted iteration need not
    settle.  The shift makes rho + 2 strictly dominant; deterministic
    start vector, residual-based stopping.

    The iterate advances by repeated squaring: step k = 0, 1, ... applies
    P = B^(2^k) and squares it, so after k steps v is B^(2^k - 1) 1,
    normalised, and the O(n^2) steps a path's eigenvalue gap asks of the
    plain method take O(log n) products of n x n matrices, O(n^3 log n) in
    all.  B has no negative entry, so no power of it cancels; each square
    is rescaled by the exact power of two that brings its largest entry
    into [1/2, 1).  Raises PowerIterationError if the residual is still
    above tolerance after _POWER_ITERATION_CAP steps.
    """
    shifted = g.adjacency() + 2.0 * np.eye(g.n)
    power = shifted
    # A strictly positive start vector has a component along the Perron vector.
    v = np.ones(g.n) / math.sqrt(g.n)
    for _ in range(_POWER_ITERATION_CAP):
        w = power @ v
        v = w / math.sqrt(float(w @ w))
        w = shifted @ v
        lam = float(v @ w)
        residual = w - lam * v
        if math.sqrt(float(residual @ residual)) < _POWER_ITERATION_TOL:
            return lam - 2.0
        power = power @ power
        power *= 2.0 ** -math.frexp(float(power.max()))[1]
    raise PowerIterationError(
        f"power iteration on {g.family}({g.n}) did not reach residual {_POWER_ITERATION_TOL} "
        f"in {_POWER_ITERATION_CAP} steps of repeated squaring"
    )


def _checked_pair(g: GraphSpec, i: int, j: int) -> tuple[int, int]:
    g.check_vertex(i)
    g.check_vertex(j)
    return (i, j) if i <= j else (j, i)


def _label_spans(g: GraphSpec, i, j):
    """|j - i| with every label checked: an int for two labels, an int64 array when either is an array (they broadcast)."""
    if not (isinstance(i, np.ndarray) or isinstance(j, np.ndarray)):
        i, j = _checked_pair(g, i, j)
        return j - i
    for labels in (i, j):
        if not isinstance(labels, np.ndarray):
            g.check_vertex(labels)
        elif labels.dtype.kind not in "iu":
            raise TypeError(f"vertex labels must be integers, got dtype {labels.dtype}")
        elif labels.size and not (1 <= labels.min() and labels.max() <= g.n):
            raise ValueError(f"vertex labels out of range 1..{g.n}")
    return np.abs(np.subtract(j, i, dtype=np.int64))


def _span_distance(g: GraphSpec, span):
    """Hop distance of g at a label span |j - i| (an int, or an int64 array of spans), unchecked."""
    if g.is_path:
        return span
    return np.minimum(span, g.n - span) if isinstance(span, np.ndarray) else min(span, g.n - span)


def _span_resistance(g: GraphSpec, span):
    """Effective resistance of g at a label span, as :func:`_span_distance`, unchecked."""
    k = _span_distance(g, span)
    if g.is_path:
        return k + 0.0  # a float, or a float64 array, of the same values
    return k * (g.n - k) / g.n


def graph_distance(g: GraphSpec, i: int, j: int) -> int:
    """Hop distance: j - i on paths, min(j - i, n - (j - i)) on cycles.

    i or j may be a numpy array of labels; the two broadcast, and the
    distances come back as an int64 array.
    """
    return _span_distance(g, _label_spans(g, i, j))


def resistance(g: GraphSpec, i: int, j: int) -> float:
    """Effective resistance with unit-resistor edges, by closed form.

    Paths: equal to the hop distance (a series chain).  Cycles: the two arcs
    between the vertices act in parallel, k(n-k)/n for arc length k.  For
    arrays of labels, as in :func:`graph_distance`, a float64 array: the
    quotient divides int64 values that are exact as doubles, so each entry
    rounds as the scalar expression does.
    """
    return _span_resistance(g, _label_spans(g, i, j))


@functools.lru_cache(maxsize=1)
def _laplacian_pinv(g: GraphSpec) -> np.ndarray:
    """(L + J/n)^(-1) - J/n for the connected graph g, one dense solve per graph.

    Cached for the latest graph, since callers sweep the pairs of one graph
    in a row; read-only, so no caller can change a later answer.
    """
    a = g.adjacency()
    lap = np.diag(a.sum(axis=1)) - a
    n = g.n
    pinv = linalg.invert(lap + 1.0 / n) - 1.0 / n
    pinv.flags.writeable = False
    return pinv


def resistance_oracle(g: GraphSpec, i: int, j: int) -> float:
    """Effective resistance via the Laplacian pseudoinverse.

    For a connected graph the pseudoinverse is (L + J/n)^(-1) - J/n with J
    the all-ones matrix; the resistance is then the standard quadratic form
    L+_ii + L+_jj - 2 L+_ij with i <= j.  Dense solve, so capped at n = 512.
    Labels are checked and broadcast as in :func:`resistance`, and read
    from one cached pseudoinverse: a float for two labels, a float64 array
    when either is an array of labels.
    """
    _label_spans(g, i, j)
    lo, hi = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    pinv = _laplacian_pinv(g)
    r = pinv[lo, lo] + pinv[hi, hi] - 2.0 * pinv[lo, hi]
    return r if isinstance(i, np.ndarray) or isinstance(j, np.ndarray) else float(r)
