"""One reading of alpha for every route.

A number of any numeric type is read as its Python float, and every float
route computes from that float: its value at alpha is its value at
float(alpha), bit for bit, and a scalar route returns a Python float.  A
2-D alpha, NaN and +-inf raise ValueError subclasses that name alpha, and
a route that takes one number refuses a 1-D sequence.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from katzlab import dpoly, katz, ordering
from katzlab.graphs import GraphSpec, require_admissible

TYPED_ALPHAS = [
    0.3,
    np.float64(0.3),
    np.float32(0.3),
    np.float16(0.3),
    Fraction(3, 10),
    Decimal("0.3"),
    np.array(0.3),
]


def float_routes(g):
    """Each float route on g as a function of alpha alone, at a few pairs, arcs and sizes."""
    n = g.n
    i, j = (labels + 1 for labels in np.triu_indices(n, k=1))
    pairs = [(1, 1), (1, 2), (3, n - 1), (n // 2, n // 2 + 1)]
    common = {"katz_pair_entries": lambda a: katz.katz_pair_entries(g, a, i, j)}
    if g.is_path:
        return common | {
            "katz_path": lambda a: [katz.katz_path(n, *pair, a) for pair in pairs],
            "katz_path_matrix": lambda a: katz.katz_path_matrix(n, a),
            "p_gap": lambda a: ordering.p_gap(n, 2, a),
            "p_tilde": lambda a: ordering.p_tilde(n, 2, a),
            "d_recursive": lambda a: dpoly.d_recursive(n, a),
            "d_sequence": lambda a: dpoly.d_sequence(n, a),
            "katz_limit_path": lambda a: [katz.katz_limit_path(*pair, a) for pair in pairs],
        }
    return common | {
        "katz_cycle": lambda a: [katz.katz_cycle(n, *pair, a) for pair in pairs],
        "katz_cycle_matrix": lambda a: katz.katz_cycle_matrix(n, a),
        "cycle_numerator_gap": lambda a: ordering.cycle_numerator_gap(n, 2, a),
        "D_cycle_denominator": lambda a: dpoly.D_cycle_denominator(n, a),
        "D_parity_form": lambda a: dpoly.D_parity_form(n, a),
        "katz_limit_cycle": lambda a: [katz.katz_limit_cycle(k, a) for k in (1, 2, n // 2)],
    }


def same_bits(got, want):
    """Equal bits and type: Python floats, lists of them, or float64 arrays."""
    if isinstance(want, list):
        return len(got) == len(want) and all(same_bits(g, w) for g, w in zip(got, want))
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return type(got) is float and type(want) is float and repr(got) == repr(want)


GRAPHS = [GraphSpec.path(10), GraphSpec.path(57), GraphSpec.cycle(10), GraphSpec.cycle(57)]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.family}{g.n}")
@pytest.mark.parametrize("alpha", TYPED_ALPHAS, ids=lambda a: f"{type(a).__name__}")
def test_every_float_route_is_its_call_at_the_float_of_alpha(alpha, g):
    x = float(alpha)
    for name, route in float_routes(g).items():
        assert same_bits(route(alpha), route(x)), name


# every public routine that takes alpha, as a function of alpha alone
ROUTINES = {
    "d_recursive": lambda a: dpoly.d_recursive(12, a),
    "d_sequence": lambda a: dpoly.d_sequence(12, a),
    "d_sequence_exact": lambda a: dpoly.d_sequence_exact(12, a),
    "d_closed": lambda a: dpoly.d_closed(12, a),
    "d_closed_sequence": lambda a: dpoly.d_closed_sequence(12, a),
    "D_cycle_denominator": lambda a: dpoly.D_cycle_denominator(12, a),
    "D_parity_form": lambda a: dpoly.D_parity_form(13, a),
    "ratio_constant": lambda a: dpoly.ratio_constant(2, a),
    "require_admissible": lambda a: require_admissible(a, GraphSpec.path(12)),
    "require_normal_denominator": lambda a: katz.require_normal_denominator(GraphSpec.cycle(12), a),
    "katz_path": lambda a: katz.katz_path(12, 2, 5, a),
    "katz_cycle": lambda a: katz.katz_cycle(12, 2, 5, a),
    "katz_path_matrix": lambda a: katz.katz_path_matrix(12, a),
    "katz_cycle_matrix": lambda a: katz.katz_cycle_matrix(12, a),
    "katz_pair_entries": lambda a: katz.katz_pair_entries(GraphSpec.path(12), a, np.array([1]), np.array([3])),
    "katz_oracle_inverse": lambda a: katz.katz_oracle_inverse(GraphSpec.path(12), a),
    "katz_oracle_series": lambda a: katz.katz_oracle_series(GraphSpec.cycle(12), a),
    "determinant_path": lambda a: katz.determinant_path(12, a),
    "determinant_cycle": lambda a: katz.determinant_cycle(12, a),
    "katz_path_exact": lambda a: katz.katz_path_exact(12, 2, 5, a),
    "katz_cycle_exact": lambda a: katz.katz_cycle_exact(12, 2, 5, a),
    "katz_limit_path": lambda a: katz.katz_limit_path(2, 5, a),
    "katz_limit_cycle": lambda a: katz.katz_limit_cycle(3, a),
    "pair_scores": lambda a: ordering.pair_scores(GraphSpec.path(12), "katz", a),
    "rank_pairs": lambda a: ordering.rank_pairs(GraphSpec.cycle(12), "katz", a),
    "score_classes": lambda a: ordering.score_classes(GraphSpec.path(12), "katz", a),
    "class_structures_match": lambda a: ordering.class_structures_match(GraphSpec.path(12), a),
    "agreement": lambda a: ordering.agreement(GraphSpec.cycle(12), a),
    "p_gap": lambda a: ordering.p_gap(12, 2, a),
    "p_tilde": lambda a: ordering.p_tilde(12, 2, a),
    "cycle_numerator_gap": lambda a: ordering.cycle_numerator_gap(12, 2, a),
}

# the routines that take one number and no sequence of alphas
NUMBER_ONLY = [
    "d_sequence",
    "d_sequence_exact",
    "d_closed",
    "d_closed_sequence",
    "ratio_constant",
    "require_admissible",
    "katz_path",
    "katz_cycle",
    "katz_path_exact",
    "katz_cycle_exact",
    "katz_limit_path",
    "katz_limit_cycle",
    "pair_scores",
    "rank_pairs",
    "score_classes",
]

BAD_ALPHAS = [np.full((2, 2), 0.3), [[0.3]], math.nan, math.inf, -math.inf, np.float32("nan"), Decimal("Infinity")]


@pytest.mark.parametrize("bad", BAD_ALPHAS, ids=repr)
@pytest.mark.parametrize("name", list(ROUTINES))
def test_a_bad_alpha_is_a_value_error_that_names_alpha(name, bad):
    with pytest.raises(ValueError, match="alpha"):
        ROUTINES[name](bad)


@pytest.mark.parametrize("alphas", [np.array([0.3]), np.array([0.3, 0.2]), [0.3], (0.3, 0.2), []], ids=repr)
@pytest.mark.parametrize("name", NUMBER_ONLY)
def test_a_number_only_routine_refuses_a_sequence(name, alphas):
    with pytest.raises(ValueError, match=r"alpha must be a single number here, got shape \(\d+,\)"):
        ROUTINES[name](alphas)


@pytest.mark.parametrize("name", list(ROUTINES))
def test_every_routine_takes_every_numeric_type(name):
    # the exact routes read a Fraction or Decimal at its exact value, every other route at its float
    for alpha in TYPED_ALPHAS:
        ROUTINES[name](alpha)
