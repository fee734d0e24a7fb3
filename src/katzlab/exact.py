"""The exact side of the closed forms: alpha as p/q, the Lucas integers and the exact Katz entries.

Every route here computes in Python ints and Fractions, in a module of
its own, away from the float kernels of ``dpoly`` and ``katz`` that it
exists to check.  alpha
is read at its exact value as p/q in lowest terms (:func:`_exact_alpha`):
a Fraction or finite Decimal as itself, anything else at its float's
binary value, checked on the graph's interval.  With alpha = p/q,
q^k d_k = U_{k+1} for the Lucas sequence of :func:`_lucas`, and a large
index is added from two runs of about half its size by
:func:`_lucas_add`.  The exact Katz entries are integer forms in U
(:func:`_path_exact_parts`, :func:`_cycle_exact_parts`), returned as
(numerator, positive denominator) and reduced once to a Fraction; two
such parts are ordered by :func:`_less`, with no division and no gcd.
:func:`d_sequence_exact` runs dpoly's one d-recursion on Fractions, so
the recursion stays written once.

This module imports no numpy of its own; ``dpoly`` and ``graphs``, whose
intake and checks it reads, do.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .dpoly import _d_sequence, _number, _require_finite, _require_index
from .graphs import AdmissibilityError, GraphSpec, _checked_pair, _span_distance


def _exact_alpha(alpha, check=None) -> tuple[int, int]:
    """(p, q) with alpha = p/q in lowest terms, its exact value checked by check, a graph's interval check, if given.

    A Fraction or a finite Decimal is read at its exact value, with no
    float made, so one past the double range is judged as itself: check
    compares the value exactly with its float bound, and with no check
    it is taken, since every such value is finite.  Anything else, a
    Decimal that is not finite included, is read by :func:`_number` as
    its float, which check, or with none the finiteness check, sees
    before any conversion; a sequence is refused, as on the float routes.
    """
    if isinstance(alpha, Fraction) or isinstance(alpha, Decimal) and alpha.is_finite():
        if check:
            check(alpha)
        return alpha.as_integer_ratio()
    return _number(alpha, check or _require_finite).as_integer_ratio()


def d_sequence_exact(n: int, alpha) -> list[Fraction]:
    """[d_0, ..., d_n] in exact rational arithmetic.

    alpha is read at its exact value by :func:`_exact_alpha` (a float at
    its exact binary value, once checked finite).  The independent list
    route that the tests compare the float recursion, the Lucas integers
    and the Katz entries against.
    """
    _require_index(n)
    return _d_sequence(n, Fraction(*_exact_alpha(alpha)), Fraction(1))


def _lucas(k: int, p2: int, q: int) -> tuple[int, int]:
    """(U_k, U_{k+1}) of the Lucas sequence U_0 = 0, U_1 = 1, U_k = q U_{k-1} - p2 U_{k-2}, by doubling.

    With alpha = p/q in lowest terms and p2 = p^2, q^k d_k = U_{k+1}: the
    d-polynomials as integers, with no power of q left to divide out.
    Reading k's bits from the top, (U_m, U_{m+1}) doubles to
    U_2m = U_m (2 U_{m+1} - q U_m) and U_{2m+1} = U_{m+1}^2 - p2 U_m^2,
    and a set bit steps on by the recursion (Joye and Quisquater,
    Electronics Letters 32, 1996): O(log k) big-integer products, with
    two terms held.  Two runs whose indices add up to a large one give it
    by :func:`_lucas_add`, with no run of its own.
    """
    u, v = 0, 1  # (U_m, U_{m+1}) at m = 0
    for bit in bin(k)[2:]:
        u, v = u * (2 * v - q * u), v * v - p2 * u * u
        if bit == "1":
            u, v = v, q * v - p2 * u
    return u, v


def _lucas_add(first: tuple[int, int], second: tuple[int, int], p2: int) -> int:
    """U_(r+s+1) from first = (U_r, U_(r+1)) and second = (U_s, U_(s+1)), as :func:`_lucas` returns them.

    The addition law U_(a+b) = U_a U_(b+1) - p2 U_(a-1) U_b (Lucas,
    American Journal of Mathematics 1, 1878) at a = r + 1, b = s: two runs
    whose indices add up to r + s give the index above both, so a large
    index costs two products of half its size instead of its own doubling.
    """
    (u_r, u_r1), (u_s, u_s1) = first, second
    return u_r1 * u_s1 - p2 * u_r * u_s


def _path_exact_parts(n: int, i: int, j: int, alpha) -> tuple[int, int]:
    """katz_path_exact as its unreduced integers (numerator, denominator); the denominator U_{n+1} is positive.

    The forms are the same at the mirror pair (n+1-j, n+1-i), which is
    taken when it has the smaller indices (i + j <= n + 1 after it).  Runs
    at n - j and j (one run when 2j = n) give U_{n+1} by the addition law
    (:func:`_lucas_add`).  U_i is the j run's on the diagonal, the n - j
    run's when i + j is n or n + 1, and else its own run, at i < n/2.  So at most one run is above n/2, and none is at n + 1.
    An exact value below the double 1/rho_n of the check but not below
    the true one, which lies within an ulp of it, gives U_{n+1} <= 0 and
    raises AdmissibilityError: the next root of d_n is far above it.
    """
    g = GraphSpec.path(n)
    i, j = _checked_pair(g, i, j)
    if i + j > n + 1:
        i, j = n + 1 - j, n + 1 - i
    p, q = _exact_alpha(alpha, g._check_alpha)
    p2 = p * p
    tail = _lucas(n - j, p2, q)  # U_{n-j}, U_{n+1-j}
    far = tail if 2 * j == n else _lucas(j, p2, q)  # U_j, U_{j+1}
    whole = _lucas_add(tail, far, p2)  # U_{n+1}
    if whole <= 0:
        raise AdmissibilityError(f"alpha {alpha} is not admissible for path({n}): d_n(alpha) <= 0, so alpha >= 1/rho")
    if i == j:
        return q * far[0] * tail[1] - whole, whole
    head = tail[i + j - n] if i + j >= n else _lucas(i, p2, q)[0]  # U_i
    return q * p ** (j - i) * head * tail[1], whole


def katz_path_exact(n: int, i: int, j: int, alpha) -> Fraction:
    """katz_path in exact rational arithmetic.

    alpha may be anywhere in path(n)'s admissible interval (0, 1/rho_n),
    which stretches above 1/2, as for :func:`katzlab.katz.katz_path`.  Its
    exact value is read as p/q, a Fraction or finite Decimal exactly and
    anything else at its float's binary value, and checked on that
    interval (:func:`_exact_alpha`): a float before any conversion, a
    Fraction or Decimal exactly, so one whose float rounds onto the bound
    is still admitted, and one past the double range is refused by name.  Every d_k with k <= n is positive there, since
    1/rho_k >= 1/rho_n; an exact value between the true 1/rho_n and the
    double bound has U_{n+1} <= 0 and raises AdmissibilityError as well
    (:func:`_path_exact_parts`).  This is the reference used to order
    consecutive convergence gaps once they drop below double resolution.
    With alpha = p/q in lowest terms, q^k d_k = U_{k+1}, the Lucas
    sequence of :func:`_lucas`, and every power of q cancels from
    katz_path's forms: the entry (i < j) is
    q p^(j-i) U_i U_{n+1-j} / U_{n+1}, and the diagonal
    (q U_i U_{n+1-i} - U_{n+1}) / U_{n+1}.  No d-recursion runs, and no
    doubling reaches n + 1: U_{n+1} is added from the runs at n - j and j
    by Lucas's addition law, so at most one run of O(log n) big-integer
    products is above n/2 (:func:`_path_exact_parts`).  The entry reduces
    once, as one Fraction, and at large n that gcd is most of its time
    (README lists measured times).
    """
    return Fraction(*_path_exact_parts(n, i, j, alpha))


def _cycle_exact_parts(n: int, i: int, j: int, alpha) -> tuple[int, int]:
    """katz_cycle_exact as its unreduced integers (numerator, denominator), over V_n - 2 p^n > 0.

    Arcs 0 and 1 read U_{n-1} and U_n from one run at n - 1.  An arc
    k >= 2 runs at n - k - 1 and k - 1 (one run when 2k = n), steps to
    U_{k+1}, and takes U_{n-1} and U_n by the addition law
    (:func:`_lucas_add`).  p^n is p^k p^(n-k), so one power of p is
    large.
    """
    g = GraphSpec.cycle(n)
    i, j = _checked_pair(g, i, j)
    k = _span_distance(g, j - i)
    p, q = _exact_alpha(alpha, g._check_alpha)
    p2 = p * p
    if k < 2:
        before, last = _lucas(n - 1, p2, q)  # U_{n-1}, U_n
        long_arc, short_arc = before, 1  # U_{n-k}, U_k at arc 1
    else:
        long_run = _lucas(n - k - 1, p2, q)  # U_{n-k-1}, U_{n-k}
        short_run = long_run if 2 * k == n else _lucas(k - 1, p2, q)  # U_{k-1}, U_k
        long_arc, short_arc = long_run[1], short_run[1]
        step = short_arc, q * short_arc - p2 * short_run[0]  # U_k, U_{k+1}
        before, last = _lucas_add(long_run, short_run, p2), _lucas_add(long_run, step, p2)
    short_power = p**k
    long_power = short_power if 2 * k == n else p ** (n - k)
    power = short_power * long_power  # p^n
    # V_n - 2 p^n, with U_{n+1} = q U_n - p^2 U_{n-1}
    denominator = q * last - 2 * p2 * before - 2 * power
    if not k:
        return 2 * power + 2 * p2 * before, denominator
    return q * (short_power * long_arc + long_power * short_arc), denominator


def katz_cycle_exact(n: int, i: int, j: int, alpha) -> Fraction:
    """katz_cycle in exact rational arithmetic, for every n >= 3, diagonal included.

    alpha is read as for :func:`katz_path_exact` and must be admissible
    for cycle(n), 0 < alpha < 1/2.  As for :func:`katz_path_exact`, with
    alpha = p/q the entries are integer forms with no power of q and no
    d-recursion: q^n D_n = V_n - 2 p^n with V_n = U_{n+1} - p^2 U_{n-1},
    the entry at arc length k >= 1 is q (p^k U_{n-k} + p^(n-k) U_k) over it,
    and the diagonal (2 p^n + 2 p^2 U_{n-1}) over it.  Arcs 0 and 1 run
    the doubling once, at n - 1; a longer arc adds U_{n-1} and U_n from
    the runs at n - k - 1 and k - 1 by Lucas's addition law
    (:func:`_cycle_exact_parts`).
    """
    return Fraction(*_cycle_exact_parts(n, i, j, alpha))


def _less(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """Whether the entry of first is below that of second, each (numerator, positive denominator) as the parts functions return them.

    a/c < b/d is a d < b c while c and d are positive: no division and no
    gcd, so entries of different sizes compare at any n.
    """
    return first[0] * second[1] < second[0] * first[1]
