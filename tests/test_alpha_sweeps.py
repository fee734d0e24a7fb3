"""The d/D evaluators and gap polynomials at a 1-D sequence of alphas.

Each of d_recursive, D_cycle_denominator, D_parity_form, p_gap, p_tilde and
cycle_numerator_gap takes a number or a 1-D sequence of alphas.  At a
sequence it returns a float64 array whose element a is the call at alpha a
alone, bit for bit; at a number it returns what it always did.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzlab import dpoly, ordering
from katzlab.dpoly import INV_SQRT5
from katzlab.graphs import AdmissibilityError, GraphSpec, spectral_radius
from katzlab.verify import DPOLY_PROBED, katz_grid

# the verify grids, a tiny alpha, 1/sqrt 5 and alphas just below 1/2
SWEPT = sorted(
    set(DPOLY_PROBED)
    | set(katz_grid(GraphSpec.cycle(3)))
    | {1e-5, INV_SQRT5}
    | {0.5 - 2.0**-k for k in range(2, 53)}
)
below_half = st.sampled_from(SWEPT) | st.floats(min_value=1e-6, max_value=0.5, exclude_min=True, exclude_max=True)
containers = st.sampled_from([list, tuple, np.array])


def assert_elementwise(got, want):
    """got is the float64 array of the scalar calls want, bit for bit."""
    assert all(type(value) is float for value in want)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (len(want),)
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


sweep = settings(derandomize=True, max_examples=60, deadline=None)


@sweep
@given(st.integers(min_value=0, max_value=60), st.lists(below_half, max_size=8), containers)
def test_d_recursive_sweep_is_its_scalar_calls(n, alphas, container):
    assert_elementwise(dpoly.d_recursive(n, container(alphas)), [dpoly.d_recursive(n, a) for a in alphas])


@sweep
@given(st.integers(min_value=3, max_value=60), st.lists(below_half, max_size=8), containers)
def test_cycle_denominator_sweep_is_its_scalar_calls(n, alphas, container):
    want = [dpoly.D_cycle_denominator(n, a) for a in alphas]
    assert_elementwise(dpoly.D_cycle_denominator(n, container(alphas)), want)


@sweep
@given(st.integers(min_value=3, max_value=60), st.lists(below_half, max_size=8), containers)
def test_parity_form_sweep_is_its_scalar_calls(n, alphas, container):
    assert_elementwise(dpoly.D_parity_form(n, container(alphas)), [dpoly.D_parity_form(n, a) for a in alphas])


@st.composite
def gap_cases(draw):
    """(n, j, alphas) with n <= 60 and admissible path alphas, some in [1/2, 1/rho)."""
    j = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=j + 2, max_value=60))
    above_half = st.floats(min_value=0.5, max_value=1.0 / spectral_radius(GraphSpec.path(n)), exclude_max=True)
    return n, j, draw(st.lists(below_half | above_half, max_size=8))


@sweep
@given(gap_cases(), containers)
def test_p_gap_sweep_is_its_scalar_calls(case, container):
    n, j, alphas = case
    assert_elementwise(ordering.p_gap(n, j, container(alphas)), [ordering.p_gap(n, j, a) for a in alphas])


@sweep
@given(gap_cases(), containers)
def test_p_tilde_sweep_is_its_scalar_calls(case, container):
    n, j, alphas = case
    assert_elementwise(ordering.p_tilde(n, j, container(alphas)), [ordering.p_tilde(n, j, a) for a in alphas])


@st.composite
def arc_cases(draw):
    """(n, k) with 1 <= k < n//2 and n <= 60."""
    n = draw(st.integers(min_value=4, max_value=60))
    return n, draw(st.integers(min_value=1, max_value=n // 2 - 1))


@sweep
@given(arc_cases(), st.lists(below_half, max_size=8), containers)
def test_cycle_numerator_gap_sweep_is_its_scalar_calls(case, alphas, container):
    n, k = case
    want = [ordering.cycle_numerator_gap(n, k, a) for a in alphas]
    assert_elementwise(ordering.cycle_numerator_gap(n, k, container(alphas)), want)


# each route as a function of alpha alone, at sizes every one of them takes
ROUTES = {
    "d_recursive": lambda alpha: dpoly.d_recursive(12, alpha),
    "D_cycle_denominator": lambda alpha: dpoly.D_cycle_denominator(12, alpha),
    "D_parity_form": lambda alpha: dpoly.D_parity_form(13, alpha),
    "p_gap": lambda alpha: ordering.p_gap(12, 2, alpha),
    "p_tilde": lambda alpha: ordering.p_tilde(12, 2, alpha),
    "cycle_numerator_gap": lambda alpha: ordering.cycle_numerator_gap(12, 2, alpha),
}


@pytest.mark.parametrize("name", list(ROUTES))
def test_empty_sequence_gives_an_empty_array(name):
    got = ROUTES[name]([])
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize("name", list(ROUTES))
def test_a_number_still_gives_a_float(name):
    assert type(ROUTES[name](0.3)) is float


@pytest.mark.parametrize("name", list(ROUTES))
def test_two_dimensional_alpha_is_rejected(name):
    with pytest.raises(ValueError, match="1-D sequence"):
        ROUTES[name]([[0.1, 0.2], [0.3, 0.4]])


def test_short_recursions_keep_their_shape():
    # d_0 and d_1 are the run's start, one per alpha
    for n in (0, 1):
        assert_elementwise(dpoly.d_recursive(n, [0.1, 0.3]), [1.0, 1.0])
    assert_elementwise(ordering.p_tilde(3, 1, [0.1, 0.3]), [ordering.p_tilde(3, 1, a) for a in (0.1, 0.3)])


# a bad alpha and the error its scalar call raises
BAD_ALPHAS = [
    ("p_gap", 0.6, AdmissibilityError),
    ("p_gap", 0.0, AdmissibilityError),
    ("p_gap", math.nan, AdmissibilityError),
    ("cycle_numerator_gap", 0.5, ValueError),
    ("cycle_numerator_gap", -0.1, ValueError),
    ("cycle_numerator_gap", math.nan, ValueError),
]


@pytest.mark.parametrize("name, bad, error", BAD_ALPHAS, ids=lambda v: repr(v) if isinstance(v, float) else None)
@pytest.mark.parametrize("place", [0, 2, 4])
def test_a_bad_alpha_anywhere_fails_before_any_work(name, bad, error, place, monkeypatch):
    with pytest.raises(error):
        ROUTES[name](bad)
    alphas = [0.1, 0.2, 0.3, 0.4]
    alphas.insert(place, bad)

    def ran(*args):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(ordering, "_d_terms", ran)
    with pytest.raises(error):
        ROUTES[name](alphas)
