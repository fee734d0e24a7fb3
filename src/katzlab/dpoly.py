"""The polynomial kernel shared by every closed form in this package.

``d_n(alpha)`` is ``det(I - alpha * A)`` for the n-vertex path graph.  The
family satisfies ``d_n = d_{n-1} - alpha^2 d_{n-2}`` with ``d_0 = d_1 = 1``,
stays in ``(0, 1]`` for ``alpha`` in ``(0, 1/2)``, and carries golden-ratio
structure at the two probe points ``alpha = 1/2`` and ``alpha = 1/sqrt(5)``
that the ordering module leans on.  The cycle-graph determinant ``D_n`` and
its parity factorization live here too.

All evaluators return IEEE doubles.  The recursion is written once, in
``_d_terms``: the scalar closed forms of the package read the few terms
they need from one run of it, and the list forms (``d_sequence``,
``d_sequence_exact``) keep every term of such a run.  ``d_closed`` is an
independent cross-check of it (see its docstring for why it is
accumulated exactly).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

SQRT5 = math.sqrt(5.0)
INV_SQRT5 = 1.0 / SQRT5

# Golden ratio (1 + sqrt 5)/2 and its reciprocal (sqrt 5 - 1)/2; the two
# satisfy GOLDEN = 1 + GOLDEN_RECIP = 1/GOLDEN_RECIP.
GOLDEN = (SQRT5 + 1.0) / 2.0
GOLDEN_RECIP = (SQRT5 - 1.0) / 2.0


def _require_index(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"index must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")


def _require_below_half(alpha) -> None:
    """Validate 0 < alpha < 1/2, the interval on which every d_k is positive.

    The d-polynomial bounds and the n -> infinity limits are proved there.
    alpha is compared as given, so a Fraction is checked exactly; NaN fails.
    """
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), where every d_k is positive; got {alpha}")


# Tuples of 0..15 turns: the run between two nearby stops iterates one of
# these, since building a range per stop costs about as much as a short
# run's steps; longer runs iterate a range.
_FEW_TURNS = tuple((None,) * turns for turns in range(16))


def _d_terms(stops, alpha, one=1.0, seq=None) -> list:
    """The terms d_s at the indices s of stops, in order, from one run of the recursion.

    d_0 = d_1 = one and d_k = d_{k-1} - alpha^2 d_{k-2}, in the arithmetic
    of alpha and one, run once up to the largest stop, two steps per turn.
    Only the latest two terms are held, so each stop must be at least the
    largest stop before it less one (the first at least 0); callers pass
    their indices in that order and unpack the terms by position.  seq, if
    given, is a list that every term the run makes, d_2 onward, is
    appended to in order.
    """
    a2 = alpha * alpha
    k = 1  # prev = d_{k-1}, cur = d_k
    prev = cur = one
    terms = []
    for stop in stops:
        steps = stop - k
        if steps > 0:
            if steps & 1:
                prev, cur = cur, cur - a2 * prev
                if seq is not None:
                    seq.append(cur)
            if steps > 1:
                turns = steps >> 1
                for _ in _FEW_TURNS[turns] if turns < len(_FEW_TURNS) else range(turns):
                    prev = cur - a2 * prev
                    cur = prev - a2 * cur
                    if seq is not None:
                        seq.append(prev)
                        seq.append(cur)
            k = stop
        terms.append(cur if stop == k else prev)
    return terms


def _d_sequence(n: int, alpha, one) -> list:
    """[d_0, ..., d_n] in the arithmetic of alpha and one, kept from one run of :func:`_d_terms`."""
    seq = [one, one]
    if n < 2:
        return seq[: n + 1]
    _d_terms((n,), alpha, one, seq)
    return seq


def d_recursive(n: int, alpha: float) -> float:
    """d_n(alpha) by the two-term recursion. O(n) time.

    Numerically benign on (0, 1/2): every intermediate stays in (0, 1] and
    both characteristic roots lie inside the unit disc, so rounding errors
    decay instead of amplifying.
    """
    _require_index(n)
    return _d_terms((n,), alpha)[0]


def d_sequence(n: int, alpha: float) -> list[float]:
    """[d_0, d_1, ..., d_n] via the same recursion as :func:`d_recursive`."""
    _require_index(n)
    return _d_sequence(n, alpha, 1.0)


def d_sequence_exact(n: int, alpha) -> list[Fraction]:
    """[d_0, ..., d_n] in exact rational arithmetic.

    alpha may be anything Fraction accepts (a float is used at its exact
    binary value).  Backs the convergence-order checks, where consecutive
    gaps shrink below double resolution.
    """
    _require_index(n)
    return _d_sequence(n, Fraction(alpha), Fraction(1))


class _ExactTerms:
    """Read-only view of d_sequence_exact(n, alpha) that normalises a term only when read.

    With alpha = p/q in lowest terms and S = q**(2*(n//2)), every S d_k for
    k <= n is an integer (d_k is a sum of integer multiples of alpha^(2m)
    with m <= n//2), so running the shared recursion from one = S keeps
    every intermediate an integer and every gcd cheap.  term[k] is the
    Fraction S d_k / S in lowest terms, the same value d_sequence_exact
    holds at k, built on first read and kept.  len() is n + 1, and k
    indexes as it would that list: a negative k counts from the end.
    """

    __slots__ = ("_scaled", "_scale", "_read")

    def __init__(self, n: int, alpha) -> None:
        _require_index(n)
        a = Fraction(alpha)
        self._scale = a.denominator ** (2 * (n // 2))
        self._scaled = _d_sequence(n, a, self._scale)
        self._read: dict[int, Fraction] = {}

    def __len__(self) -> int:
        return len(self._scaled)

    def __getitem__(self, k: int) -> Fraction:
        term = self._read.get(k)
        if term is None:
            term = self._read[k] = Fraction(self._scaled[k].numerator, self._scale)
        return term


def _closed_sum(n: int, p2: int, q_powers) -> float:
    """d_n from alpha^2 = p2/q2, with q_powers yielding q2^0, q2^1, ..., q2^(n//2) in order.

    Horner's rule in p2 from the top power down leaves total = the sum over
    m of (-1)^m C(n-m, m) p2^m q2^(n//2 - m), with one small factor in every
    product: no product of two large powers.  It is divided by the last
    power once, and int / int rounds correctly, as the float of the reduced
    Fraction does, with no gcd taken.
    """
    m = n // 2
    total = 0
    for q_power in q_powers:  # q2^(n//2 - m)
        term = math.comb(n - m, m) * q_power
        total = total * p2 + (-term if m % 2 else term)
        m -= 1
    return total / q_power


def _squares(alpha) -> tuple[int, int]:
    """(p^2, q^2) for alpha = p/q, the exact binary value of the double."""
    p, q = float(alpha).as_integer_ratio()
    return p * p, q * q


def d_closed(n: int, alpha: float) -> float:
    """d_n(alpha) as the alternating sum over m of (-1)^m C(n-m, m) alpha^(2m).

    The sum is hostile to floating point for large n: at n = 100,
    alpha = 0.49 the largest term is ~1e7 while the value is ~1e-22, so a
    double-precision accumulation loses the value entirely.  Since any
    machine double is an exact binary rational p/q, the sum is instead
    accumulated in exact integer arithmetic over alpha^2 = p^2/q^2 and
    rounded once at the end.  That keeps this evaluator a full-accuracy
    independent cross-check of d_recursive at every n the test sweeps use.
    The powers of q^2 are made as the sum reads them: O(n) memory.
    """
    _require_index(n)
    p2, q2 = _squares(alpha)
    return _closed_sum(n, p2, accumulate(repeat(q2, n // 2), mul, initial=1))


def d_closed_sequence(n: int, alpha: float) -> list[float]:
    """[d_closed(0, alpha), ..., d_closed(n, alpha)], bit for bit, from one list of powers of q^2.

    Each sum is run and rounded as :func:`d_closed` runs it; only the
    integer powers are shared across the sizes.  No recursion: the values
    stay an independent check of it.
    """
    _require_index(n)
    p2, q2 = _squares(alpha)
    q_powers = list(accumulate(repeat(q2, n // 2), mul, initial=1))
    return [_closed_sum(k, p2, q_powers[: k // 2 + 1]) for k in range(n + 1)]


def d_special_half(n: int) -> float:
    """d_n(1/2) = (n + 1) / 2^n, computed exactly as a dyadic rational."""
    _require_index(n)
    return math.ldexp(n + 1, -n)


def d_special_root5(n: int) -> float:
    """d_n(1/sqrt 5) = (GOLDEN^(n+1) - GOLDEN_RECIP^(n+1)) / sqrt(5)^n.

    Written with the powers pre-divided by sqrt(5)^n so the expression never
    overflows, whatever n is.
    """
    _require_index(n)
    hi = GOLDEN * (GOLDEN / SQRT5) ** n
    lo = GOLDEN_RECIP * (GOLDEN_RECIP / SQRT5) ** n
    return hi - lo


def _cycle_denominator(d_before, d_last, n: int, alpha):
    """D_n = d_{n-1} - 2 alpha^n - 2 alpha^2 d_{n-2} from d_before = d_{n-2} and d_last = d_{n-1}.

    Integer constants keep the expression exact when the terms and alpha
    are Fractions; on floats they round exactly as 2.0 would.
    """
    return d_last - 2 * alpha**n - 2 * alpha * alpha * d_before


def D_cycle_denominator(n: int, alpha: float) -> float:
    """det(I - alpha * A) for the n-cycle: d_{n-1} - 2 alpha^n - 2 alpha^2 d_{n-2}.

    Defined for n >= 3; it is the denominator of every cycle Katz entry,
    diagonal included, at every n >= 3.
    """
    _require_index(n)
    if n < 3:
        raise ValueError(f"cycle determinant needs n >= 3, got {n}")
    return _cycle_denominator(*_d_terms((n - 2, n - 1), alpha), n, alpha)


def D_parity_form(n: int, alpha: float) -> float:
    """Parity-factored form of :func:`D_cycle_denominator`.

    Even n = 2L:  (1 - 4 alpha^2) d_{L-1}^2.
    Odd  n = 2L+1: (1 - 2 alpha) (alpha^(2L) + (1 + 2 alpha) d_L d_{L-1}).
    """
    _require_index(n)
    if n < 3:
        raise ValueError(f"parity form needs n >= 3, got {n}")
    if n % 2 == 0:
        ell = n // 2
        (d,) = _d_terms((ell - 1,), alpha)
        return (1.0 - 4.0 * alpha * alpha) * d * d
    ell = (n - 1) // 2
    d_before, d_ell = _d_terms((ell - 1, ell), alpha)
    return (1.0 - 2.0 * alpha) * (alpha ** (2 * ell) + (1.0 + 2.0 * alpha) * d_ell * d_before)


def fib_ratio(n: int) -> float:
    """(GOLDEN^(n+1) - GOLDEN_RECIP^(n+1)) / (sqrt(5) (GOLDEN^n - GOLDEN_RECIP^n)).

    The golden-ratio analogue of consecutive-Fibonacci ratios; it lower-bounds
    d_n/d_{n-1} for alpha below 1/sqrt(5), and consecutive values satisfy
    fib_ratio(n-1) * (1 - fib_ratio(n)) = 1/5.
    """
    _require_index(n)
    if n < 1:
        raise ValueError("fib_ratio needs n >= 1; the n = 0 denominator vanishes")
    num = GOLDEN ** (n + 1) - GOLDEN_RECIP ** (n + 1)
    den = SQRT5 * (GOLDEN**n - GOLDEN_RECIP**n)
    return num / den


def ratio_constant(k: int, alpha: float) -> float:
    """((1 + sqrt(1 - 4 alpha^2)) / 2)^k, the limit of d_{n+k}/d_n as n grows.

    Negative k is allowed; the limit formulas for Katz entries use it as the
    growth factor 2/(1 + sqrt(1 - 4 alpha^2)).
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"shift must be an integer, got {k!r}")
    _require_below_half(alpha)
    return ((1.0 + math.sqrt(1.0 - 4.0 * alpha * alpha)) / 2.0) ** k
