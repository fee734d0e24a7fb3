"""One reading of alpha for every route.

A number of any numeric type is read as its Python float, and every float
route computes from that float: its value at alpha is its value at
float(alpha), bit for bit, and a scalar route returns a Python float.  A
2-D alpha, NaN, +-inf and a number with no finite float raise ValueError
subclasses that name alpha, and a route that takes one number refuses a
1-D sequence.  The exact routes read a Fraction or finite Decimal at its
exact value instead, so one past the double range meets the graph's check
as itself.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from katzlab import dpoly, exact, katz, ordering
from katzlab.graphs import AdmissibilityError, GraphSpec, require_admissible

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
    "d_sequence_exact": lambda a: exact.d_sequence_exact(12, a),
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
    "katz_path_exact": lambda a: exact.katz_path_exact(12, 2, 5, a),
    "katz_cycle_exact": lambda a: exact.katz_cycle_exact(12, 2, 5, a),
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


def recorded_checks(monkeypatch):
    """The list that every interval check appends (interval, alpha) to: "graph" for (0, 1/rho), "half" for (0, 1/2)."""
    calls = []
    graph_check, half_check = GraphSpec._check_alpha, dpoly._require_below_half

    def counted_graph(g, value):
        calls.append(("graph", value))
        return graph_check(g, value)

    def counted_half(value):
        calls.append(("half", value))
        return half_check(value)

    monkeypatch.setattr(GraphSpec, "_check_alpha", counted_graph)
    for module in (dpoly, katz, ordering):
        monkeypatch.setattr(module, "_require_below_half", counted_half)
    return calls


# the routines that check alpha for finiteness alone, and those that check it on (0, 1/2); the rest check it on (0, 1/rho)
FINITE_ONLY = ["d_recursive", "d_sequence", "d_sequence_exact", "d_closed", "d_closed_sequence", "D_cycle_denominator", "D_parity_form", "p_tilde"]
HALF_INTERVAL = ["ratio_constant", "katz_limit_path", "katz_limit_cycle", "cycle_numerator_gap"]


@pytest.mark.parametrize("name", list(ROUTINES))
def test_each_alpha_is_checked_once_against_its_interval(name, monkeypatch):
    interval = None if name in FINITE_ONLY else "half" if name in HALF_INTERVAL else "graph"
    sweep = [0.1, 0.3, 0.46]
    calls = recorded_checks(monkeypatch)
    for alpha, checked in [(0.3, [0.3])] + ([] if name in NUMBER_ONLY else [(sweep, sweep)]):
        calls.clear()
        ROUTINES[name](alpha)
        assert calls == ([(interval, a) for a in checked] if interval else [])


@pytest.mark.parametrize("name", ["katz_path_exact", "katz_cycle_exact"])
def test_an_exact_route_checks_a_fraction_once_at_its_exact_value(name, monkeypatch):
    calls = recorded_checks(monkeypatch)
    ROUTINES[name](Fraction(3, 10))
    assert calls == [("graph", Fraction(3, 10))]


PATH_BOUND = "0.5211085581132028"  # 1/rho of path(10), the double
PATH_MESSAGE = "alpha {} is not admissible for path(10): requires 0 < alpha < 0.521109"
CYCLE_MESSAGE = "alpha {} is not admissible for cycle(12): requires 0 < alpha < 0.5"
HALF_MESSAGE = "alpha must lie in (0, 1/2), where every d_k is positive; got {}"

# each route with its error type, its message and the bound of its interval as the message prints it
REFUSING_ROUTES = {
    "katz_path": (lambda a: katz.katz_path(10, 1, 2, a), AdmissibilityError, PATH_MESSAGE, PATH_BOUND),
    "katz_path_exact": (lambda a: exact.katz_path_exact(10, 1, 2, a), AdmissibilityError, PATH_MESSAGE, PATH_BOUND),
    "p_gap": (lambda a: ordering.p_gap(10, 2, a), AdmissibilityError, PATH_MESSAGE, PATH_BOUND),
    "katz_cycle": (lambda a: katz.katz_cycle(12, 1, 3, a), AdmissibilityError, CYCLE_MESSAGE, "0.5"),
    "katz_cycle_exact": (lambda a: exact.katz_cycle_exact(12, 1, 3, a), AdmissibilityError, CYCLE_MESSAGE, "0.5"),
    "katz_limit_path": (lambda a: katz.katz_limit_path(1, 2, a), ValueError, HALF_MESSAGE, "0.5"),
    "katz_limit_cycle": (lambda a: katz.katz_limit_cycle(1, a), ValueError, HALF_MESSAGE, "0.5"),
    "ratio_constant": (lambda a: dpoly.ratio_constant(1, a), ValueError, HALF_MESSAGE, "0.5"),
    "cycle_numerator_gap": (lambda a: ordering.cycle_numerator_gap(12, 2, a), ValueError, HALF_MESSAGE, "0.5"),
}


def assert_refused(route, alpha, error, message):
    with pytest.raises(error) as raised:
        route(alpha)
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("text", ["0.0", "-0.1", "bound", "nan"])
@pytest.mark.parametrize("name", list(REFUSING_ROUTES))
def test_an_alpha_outside_its_interval_gets_the_full_message(name, text):
    route, error, message, bound = REFUSING_ROUTES[name]
    text = bound if text == "bound" else text
    assert_refused(route, float(text), error, message.format(text))


@pytest.mark.parametrize(
    "name, alpha, message",
    [
        (
            "katz_path_exact",
            Fraction(float(PATH_BOUND)) + Fraction(1, 10**40),
            PATH_MESSAGE.format("42689213080633571735233999788761138916023817/81920000000000000000000000000000000000000000"),
        ),
        (
            "katz_cycle_exact",
            Fraction(1, 2) + Fraction(1, 10**40),
            CYCLE_MESSAGE.format("5000000000000000000000000000000000000001/10000000000000000000000000000000000000000"),
        ),
        ("p_gap", [0.1, float(PATH_BOUND), 0.2], PATH_MESSAGE.format(PATH_BOUND)),
        ("cycle_numerator_gap", [0.1, 0.5], HALF_MESSAGE.format("0.5")),
    ],
    ids=["path_exact_fraction_past_the_bound", "cycle_exact_fraction_past_the_bound", "p_gap_sequence", "cycle_gap_sequence"],
)
def test_a_fraction_past_the_bound_or_one_bad_member_gets_the_full_message(name, alpha, message):
    route, error, _, _ = REFUSING_ROUTES[name]
    assert_refused(route, alpha, error, message)


@pytest.mark.parametrize(
    "g, alphas, message",
    [
        (GraphSpec.path(10), [0.1, 0.6, 0.2], PATH_MESSAGE.format("0.6")),
        (GraphSpec.cycle(12), [0.1, 0.2, 0.5], CYCLE_MESSAGE.format("0.5")),
    ],
    ids=["path", "cycle"],
)
def test_one_bad_member_of_agreement_alphas_gets_the_full_message(g, alphas, message):
    assert_refused(lambda a: ordering.agreement(g, a), alphas, AdmissibilityError, message)


EXACT_ROUTES = ["d_sequence_exact", "katz_path_exact", "katz_cycle_exact"]
# numbers with no finite float: past the double range either way, or a signaling NaN
NO_FLOAT = {"fraction": Fraction(10**400), "int": 10**400, "negative_int": -(10**400), "signaling_nan": Decimal("sNaN")}


# every routine with each, but the exact routes with the Fraction, which they read at its exact value
@pytest.mark.parametrize(
    "name, bad",
    [(name, bad) for name in ROUTINES for bad in NO_FLOAT if not (name in EXACT_ROUTES and bad == "fraction")],
)
def test_a_number_with_no_finite_float_is_refused_by_name(name, bad):
    with pytest.raises(ValueError) as raised:
        ROUTINES[name](NO_FLOAT[bad])
    assert str(raised.value) == f"alpha must be a finite number, got {NO_FLOAT[bad]}"


@pytest.mark.parametrize("name", ["p_gap", "agreement"])
def test_a_sequence_with_a_member_with_no_finite_float_is_refused_by_name(name):
    alphas = [0.1, Fraction(10**400)]
    with pytest.raises(ValueError) as raised:
        ROUTINES[name](alphas)
    assert str(raised.value) == f"alpha must be a finite number, got {alphas}"


@pytest.mark.parametrize(
    "alpha",
    [Fraction(10**400), -Fraction(10**400), Decimal("1e400"), Decimal("-1e400")],
    ids=["fraction", "negative_fraction", "decimal", "negative_decimal"],
)
@pytest.mark.parametrize("name", ["katz_path_exact", "katz_cycle_exact"])
def test_an_exact_route_judges_a_value_past_the_double_range_as_itself(name, alpha):
    route, error, message, _ = REFUSING_ROUTES[name]
    assert_refused(route, alpha, error, message.format(alpha))


@pytest.mark.parametrize("alpha", [Fraction(10**400), Decimal("1e400")], ids=["fraction", "decimal"])
def test_the_exact_sequence_takes_a_value_past_the_double_range(alpha):
    a = Fraction(alpha)
    assert exact.d_sequence_exact(3, alpha) == [1, 1, 1 - a * a, 1 - 2 * a * a]


# None and objects with no float, alone or as a member; numpy's own cast reads None as NaN
NOT_NUMBERS = {
    "none": (None, "()"),
    "none_member": ([None], "(1,)"),
    "none_after_a_number": ([0.3, None], "(2,)"),
    "object": (object(), "()"),
    "dict": ({"alpha": 0.3}, "()"),
    "object_after_a_number": ([0.3, object()], "(2,)"),
}


@pytest.mark.parametrize("bad", list(NOT_NUMBERS))
@pytest.mark.parametrize("name", ["katz_path", "katz_path_exact", "d_recursive", "D_cycle_denominator", "agreement"])
def test_an_alpha_that_is_not_a_number_is_refused_before_any_check(name, bad, monkeypatch):
    alpha, shape = NOT_NUMBERS[bad]
    calls = recorded_checks(monkeypatch)
    assert_refused(
        ROUTINES[name], alpha, ValueError, f"alpha must be a number or a 1-D sequence of numbers, got object of shape {shape}"
    )
    assert calls == []


# numeric strings beside a number that is not a float, which makes numpy build an object array;
# a list of strings alone is a string array, refused by its dtype
STRING_MEMBERS = {
    "str_after_a_fraction": ([Fraction(1, 3), "0.3"], "object of shape (2,)"),
    "bytes_after_a_fraction": ([Fraction(1, 5), b"0.3"], "object of shape (2,)"),
    "str_after_a_decimal": ([Decimal("0.1"), "0.3"], "object of shape (2,)"),
    "numpy_str_after_a_fraction": ([Fraction(1, 5), np.str_("0.3")], "object of shape (2,)"),
    "str_alone": (["0.3"], "<U3 of shape (1,)"),
}


@pytest.mark.parametrize("bad", list(STRING_MEMBERS))
@pytest.mark.parametrize("name", ["d_recursive", "agreement", "katz_pair_entries"])
def test_a_numeric_string_member_is_refused_before_any_check(name, bad, monkeypatch):
    alpha, kind = STRING_MEMBERS[bad]
    calls = recorded_checks(monkeypatch)
    assert_refused(ROUTINES[name], alpha, ValueError, f"alpha must be a number or a 1-D sequence of numbers, got {kind}")
    assert calls == []
