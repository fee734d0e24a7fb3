import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from katzlab import dpoly

ALPHAS = [0.02, 0.1, 0.25, 0.3, 1.0 / math.sqrt(5.0), 0.45, 0.49]

# interior decay values; max_value stays below 1/2 where the bounds hold
decay = st.floats(min_value=1e-3, max_value=0.499)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_base_cases(alpha):
    assert dpoly.d_recursive(0, alpha) == 1.0
    assert dpoly.d_recursive(1, alpha) == 1.0


def test_hand_table_at_half():
    # d_n = d_{n-1} - 0.25 d_{n-2}, worked by hand
    expected = [1.0, 1.0, 0.75, 0.5, 0.3125, 0.1875]
    assert [dpoly.d_recursive(n, 0.5) for n in range(6)] == expected


def test_sequence_matches_scalar():
    seq = dpoly.d_sequence(30, 0.37)
    assert len(seq) == 31
    assert seq == [dpoly.d_recursive(n, 0.37) for n in range(31)]


def test_sequence_exact_types_and_values():
    seq = dpoly.d_sequence_exact(20, Fraction(1, 2))
    assert all(isinstance(v, Fraction) for v in seq)
    # at alpha = 1/2 the family collapses to (n + 1) / 2^n
    assert all(seq[n] == Fraction(n + 1, 2**n) for n in range(21))


def test_sequence_exact_accepts_floats():
    seq = dpoly.d_sequence_exact(40, 0.3)
    # the float recursion at 0.3 should track the exact rationals closely
    assert all(abs(float(seq[n]) - dpoly.d_recursive(n, 0.3)) < 1e-14 for n in range(41))


READER_SIZES = [0, 1, 2, 3, 10, 321]
READER_ALPHAS = [Fraction(1, 5), Fraction(1, 2), 1e-5, 0.1, 0.3, 0.45, 0.499]
# and two Fractions whose denominators are no power of two
LUCAS_ALPHAS = [*READER_ALPHAS, Fraction(2, 7), Fraction(1, 10**30 + 1)]


def lucas_recursion(n, alpha):
    """p^2, q and [U_0, ..., U_(n+2)] for alpha = p/q in lowest terms: U_0 = 0, U_1 = 1, U_k = q U_(k-1) - p^2 U_(k-2)."""
    a = Fraction(alpha)
    p2, q = a.numerator**2, a.denominator
    u = [0, 1]
    while len(u) < n + 3:
        u.append(q * u[-1] - p2 * u[-2])
    return p2, q, u


@pytest.mark.parametrize("n", READER_SIZES)
@pytest.mark.parametrize("alpha", LUCAS_ALPHAS, ids=str)
def test_exact_terms_read_the_exact_sequence(n, alpha):
    # the exact routes read d_k as the integer q^k d_k = U_(k+1)
    p2, q, _ = lucas_recursion(n, alpha)
    d = dpoly.d_sequence_exact(n, alpha)
    assert [dpoly._lucas(k + 1, p2, q)[0] for k in range(n + 1)] == [q**k * d[k] for k in range(n + 1)]


@pytest.mark.parametrize("n", READER_SIZES)
@pytest.mark.parametrize("alpha", LUCAS_ALPHAS, ids=str)
def test_exact_terms_scale_to_integers(n, alpha):
    # doubling gives the pair (U_k, U_(k+1)) of the plain integer recursion
    p2, q, u = lucas_recursion(n, alpha)
    for k in range(n + 2):
        pair = dpoly._lucas(k, p2, q)
        assert pair == (u[k], u[k + 1]), k
        assert all(type(value) is int for value in pair)


@pytest.mark.parametrize("alpha", [Fraction(2, 5), Fraction(1, 7), Fraction(1, 3), 0.3, 0.499], ids=str)
def test_addition_law_is_the_doubling_at_the_sum(alpha):
    # U_(a+b) = U_a U_(b+1) - p^2 U_(a-1) U_b, from the runs at a - 1 and b
    p2, q, _ = lucas_recursion(0, alpha)
    runs = [dpoly._lucas(k, p2, q) for k in range(161)]
    for a in range(1, 81):
        for b in range(81):
            assert dpoly._lucas_add(runs[a - 1], runs[b], p2) == runs[a + b][0], (a, b)


@given(st.integers(min_value=0, max_value=80), decay)
def test_closed_sum_matches_recursion(n, alpha):
    a = dpoly.d_closed(n, alpha)
    b = dpoly.d_recursive(n, alpha)
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_closed_sum_survives_cancellation():
    # at n = 100, alpha = 0.49 the alternating terms reach ~1e7 while the
    # value is ~1e-22; only the exact accumulation keeps any digits
    a = dpoly.d_closed(100, 0.49)
    b = dpoly.d_recursive(100, 0.49)
    assert a > 0.0
    assert abs(a - b) <= 1e-12 * abs(a)


def ascending_closed_sum(n, alpha):
    """d_closed as first written: terms in ascending m, the total rounded through a reduced Fraction."""
    p, q = float(alpha).as_integer_ratio()
    half = n // 2
    total = sum((-1) ** m * math.comb(n - m, m) * p ** (2 * m) * q ** (2 * (half - m)) for m in range(half + 1))
    return float(Fraction(total, q ** (2 * half)))


CLOSED_ALPHAS = ALPHAS + [1e-5, 0.499, 0.5, 0.6, 1.7, 5e-324, 1e-300, 1.0 / 3.0]


def test_closed_sum_is_the_ascending_fraction_route():
    rng = random.Random(15)
    for alpha in CLOSED_ALPHAS + [rng.uniform(0.0, 0.5) for _ in range(10)]:
        for n in list(range(0, 41)) + [63, 64, 100, 120]:
            assert repr(dpoly.d_closed(n, alpha)) == repr(ascending_closed_sum(n, alpha)), (n, alpha)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 101])
def test_closed_sequence_is_the_scalar_closed_sum(n):
    for alpha in CLOSED_ALPHAS + [Fraction(1, 3), np.float64(0.3)]:
        seq = dpoly.d_closed_sequence(n, alpha)
        assert len(seq) == n + 1
        assert [repr(value) for value in seq] == [repr(dpoly.d_closed(k, alpha)) for k in range(n + 1)]
    with pytest.raises(ValueError):
        dpoly.d_closed_sequence(-1, 0.3)
    with pytest.raises(TypeError):
        dpoly.d_closed_sequence(3.0, 0.3)


def test_closed_sum_holds_no_list_of_powers():
    # the sum's integers have about as many bits as its denominator
    # q^(2 floor(n/2)); a list of every power up to it would hold about n/4 times that
    n, alpha = 1000, 0.3
    denominator_bytes = (alpha.as_integer_ratio()[1] ** (2 * (n // 2))).bit_length() // 8
    dpoly.d_closed(10, alpha)
    tracemalloc.start()
    try:
        dpoly.d_closed(n, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * denominator_bytes


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=10**6), decay)
def test_splitting_identity(n, k_seed, alpha):
    k = 1 + k_seed % (n - 1)
    seq = dpoly.d_sequence(n, alpha)
    rhs = seq[k] * seq[n - k] - alpha * alpha * seq[k - 1] * seq[n - k - 1]
    # absolute tolerance below magnitude 1: the subtraction cancels, and all
    # d values live in (0, 1]
    assert abs(seq[n] - rhs) <= 1e-12 * max(abs(seq[n]), abs(rhs), 1.0)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6), decay)
def test_product_identity(n, k_seed, alpha):
    k = 1 + k_seed % n
    seq = dpoly.d_sequence(n + 1, alpha)
    lhs = seq[k] * seq[n] - seq[k - 1] * seq[n + 1]
    rhs = alpha ** (2 * k) * seq[n - k]
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@given(st.integers(min_value=2, max_value=100), decay)
def test_strict_decrease_bounds(n, alpha):
    seq = dpoly.d_sequence(n, alpha)
    assert seq[n - 1] > seq[n] > 0.5 * seq[n - 1] > 0.0


def test_special_half_is_exact():
    for n in range(61):
        assert dpoly.d_special_half(n) == math.ldexp(n + 1, -n)
        # both routes are dyadic-exact in doubles, so they agree bitwise
        assert dpoly.d_recursive(n, 0.5) == dpoly.d_special_half(n)


def test_special_root5_matches_recursion():
    for n in range(101):
        a = dpoly.d_special_root5(n)
        b = dpoly.d_recursive(n, dpoly.INV_SQRT5)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_special_root5_never_overflows():
    # the pre-divided powers keep intermediates bounded at any index
    value = dpoly.d_special_root5(100000)
    assert math.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("n, expected", [(1, 1.0), (2, 0.8)])
def test_fib_ratio_small_values(n, expected):
    assert dpoly.fib_ratio(n) == pytest.approx(expected, rel=1e-14)


def test_fib_ratio_identity_and_limit():
    for n in range(2, 80):
        assert dpoly.fib_ratio(n - 1) * (1.0 - dpoly.fib_ratio(n)) == pytest.approx(0.2, abs=1e-14)
    # ratios settle on the golden ratio over sqrt 5
    assert dpoly.fib_ratio(200) == pytest.approx(dpoly.GOLDEN / dpoly.SQRT5, rel=1e-14)


def test_golden_lower_bound_below_probe():
    for alpha in (0.05, 0.2, 0.4, 0.44):
        seq = dpoly.d_sequence(100, alpha)
        for n in range(1, 101):
            assert seq[n] >= dpoly.fib_ratio(n) * seq[n - 1] - 1e-15


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
def test_ratio_constant_is_the_tail_ratio(alpha):
    seq = dpoly.d_sequence(403, alpha)
    for k in (1, 2, 3):
        assert seq[400 + k] / seq[400] == pytest.approx(dpoly.ratio_constant(k, alpha), abs=1e-8)


@given(st.integers(min_value=-6, max_value=6), decay)
def test_ratio_constant_inverse_pairing(k, alpha):
    prod = dpoly.ratio_constant(k, alpha) * dpoly.ratio_constant(-k, alpha)
    assert prod == pytest.approx(1.0, rel=1e-14)


def test_vanishing_power_ratio_bound():
    for alpha in ALPHAS:
        seq = dpoly.d_sequence(200, alpha)
        power = 1.0
        for n in range(1, 201):
            power *= alpha
            assert power / seq[n] <= 2.0 * alpha / (n + 1) * (1.0 + 1e-13)


def test_cycle_denominator_worked_values():
    # D_3(0.2) = d_2 - 2(0.2)^3 - 2(0.2)^2 d_1 = 0.96 - 0.016 - 0.08
    assert dpoly.D_cycle_denominator(3, 0.2) == pytest.approx(0.864, abs=1e-15)
    assert dpoly.D_cycle_denominator(5, 0.2) == pytest.approx(0.80736, abs=1e-15)


@given(st.integers(min_value=3, max_value=100), decay)
def test_parity_factorization(n, alpha):
    a = dpoly.D_parity_form(n, alpha)
    b = dpoly.D_cycle_denominator(n, alpha)
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-30)


def test_index_validation():
    with pytest.raises(ValueError):
        dpoly.d_recursive(-1, 0.3)
    with pytest.raises(TypeError):
        dpoly.d_recursive(2.0, 0.3)
    with pytest.raises(TypeError):
        dpoly.d_recursive(True, 0.3)
    with pytest.raises(ValueError):
        dpoly.D_cycle_denominator(2, 0.3)
    with pytest.raises(ValueError):
        dpoly.D_parity_form(2, 0.3)
    with pytest.raises(ValueError):
        dpoly.fib_ratio(0)


def test_ratio_constant_validation():
    with pytest.raises(ValueError):
        dpoly.ratio_constant(1, 0.5)
    with pytest.raises(ValueError):
        dpoly.ratio_constant(1, 0.0)
    with pytest.raises(TypeError):
        dpoly.ratio_constant(1.5, 0.3)


def test_golden_constants():
    assert dpoly.GOLDEN == pytest.approx(1.0 + dpoly.GOLDEN_RECIP, abs=1e-15)
    assert dpoly.GOLDEN * dpoly.GOLDEN_RECIP == pytest.approx(1.0, abs=1e-15)
    assert dpoly.SQRT5 * dpoly.INV_SQRT5 == pytest.approx(1.0, abs=1e-15)


def list_route(n, alpha, one=1.0):
    """[d_0, ..., d_n] one step per term, the loop every d-route ran before the term reader."""
    a2 = alpha * alpha
    seq = [one]
    prev = cur = one
    for _ in range(n):
        seq.append(cur)
        prev, cur = cur, cur - a2 * prev
    return seq


def same(got, want):
    """Equal value and type, element by element for lists; NaN matches NaN."""
    if isinstance(want, list):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    return type(got) is type(want) and (got == want or (got != got and want != want))


# two numeric types besides plain floats: every route reads alpha as float(alpha)
TYPED_ALPHAS = [Fraction(1, 5), np.float64(0.3)]
ROUTE_ALPHAS = [1e-5, 0.02, 0.1, 0.3, 1.0 / math.sqrt(5.0), 0.45, 0.49, 0.499, 0.5, *TYPED_ALPHAS]


@pytest.mark.parametrize("alpha", ROUTE_ALPHAS, ids=str)
def test_sequences_are_the_one_step_list_route(alpha):
    for n in [*range(40), 250, 2000]:
        assert same(dpoly.d_sequence(n, alpha), list_route(n, float(alpha))), n
        assert same(dpoly.d_recursive(n, alpha), list_route(n, float(alpha))[n]), n
    for n in (0, 1, 2, 3, 17, 120):
        assert same(dpoly.d_sequence_exact(n, alpha), list_route(n, Fraction(alpha), Fraction(1))), n


def random_stops(rng, top):
    """Indices in 0..top, each at least the largest before it less one: the order _d_terms accepts."""
    stops = [rng.randint(0, top)]
    for _ in range(rng.randint(0, 6)):
        stops.append(rng.randint(max(max(stops) - 1, 0), top))
    return tuple(stops)


@pytest.mark.parametrize("alpha", ROUTE_ALPHAS, ids=str)
def test_terms_are_the_list_terms_at_any_stops(alpha):
    rng = random.Random(f"stops:{alpha}")
    for top in [*range(8), 40, 41, 300]:
        for _ in range(40):
            stops = random_stops(rng, top)
            want = list_route(max(stops), alpha)
            assert same(dpoly._d_terms(stops, alpha), [want[s] for s in stops]), stops
    # adjacent and repeated stops, both parities of every gap, runs either side of 32 steps
    for stops in [(0,), (1,), (0, 0, 1, 1), (1, 0), (5, 4, 5, 5, 6), (2, 3, 9, 10, 12), (0, 7, 6, 7, 8),
                  (32, 64, 97, 131), (1, 33, 34, 68), (2, 33, 65, 66)]:
        want = list_route(max(stops), alpha)
        assert same(dpoly._d_terms(stops, alpha), [want[s] for s in stops]), stops


@pytest.mark.parametrize("one", [1.0, Fraction(1), 3**6], ids=str)
def test_terms_keep_every_term_into_a_list(one):
    alpha = Fraction(1, 3) if isinstance(one, int) else 0.3
    for stops in [(0,), (1,), (2,), (3, 2), (0, 7, 6, 7), (12,), (5, 13)]:
        seq = [one, one]
        terms = dpoly._d_terms(stops, alpha, one, seq)
        want = list_route(max(*stops, 1), alpha, one)
        assert same(seq, want), stops
        assert same(terms, [want[s] for s in stops]), stops


def parity_list_route(n, alpha):
    """D_parity_form by the list route: its terms read from one d_sequence."""
    if n % 2 == 0:
        d = list_route(n // 2 - 1, alpha)[-1]
        return (1.0 - 4.0 * alpha * alpha) * d * d
    ell = (n - 1) // 2
    seq = list_route(ell, alpha)
    return (1.0 - 2.0 * alpha) * (alpha ** (2 * ell) + (1.0 + 2.0 * alpha) * seq[ell] * seq[ell - 1])


@pytest.mark.parametrize("alpha", ROUTE_ALPHAS, ids=str)
def test_cycle_determinants_are_the_list_route(alpha):
    x = float(alpha)
    for n in [*range(3, 81), 247, 250, 1000, 3000]:
        seq = list_route(n - 1, x)
        want = seq[n - 1] - 2 * x**n - 2 * x * x * seq[n - 2]
        assert same(dpoly.D_cycle_denominator(n, alpha), want), n
        assert same(dpoly.D_parity_form(n, alpha), parity_list_route(n, x)), n


def test_scalar_d_routes_hold_no_list():
    dpoly.d_recursive(10, 0.01)
    for call in (
        lambda: dpoly.d_recursive(200_000, 0.01),
        lambda: dpoly.D_cycle_denominator(200_000, 0.01),
        lambda: dpoly.D_parity_form(200_001, 0.01),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_index_checks_come_before_the_recursion(monkeypatch):
    def ran(*args):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(dpoly, "_d_terms", ran)
    for route in (dpoly.d_recursive, dpoly.D_cycle_denominator, dpoly.D_parity_form):
        with pytest.raises(TypeError, match="index must be an integer"):
            route(12.0, 0.3)
        with pytest.raises(TypeError, match="index must be an integer"):
            route(True, 0.3)
        with pytest.raises(ValueError, match="index must be >= 0"):
            route(-3, 0.3)
    with pytest.raises(ValueError, match="cycle determinant needs n >= 3"):
        dpoly.D_cycle_denominator(2, 0.3)
    with pytest.raises(ValueError, match="parity form needs n >= 3"):
        dpoly.D_parity_form(2, 0.3)
