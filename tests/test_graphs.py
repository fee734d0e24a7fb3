import math
import tracemalloc

import numpy as np
import pytest

from katzlab import graphs, katz, linalg
from katzlab.graphs import AdmissibilityError, GraphSpec, VertexPair


def test_family_validation():
    with pytest.raises(ValueError):
        GraphSpec("tree", 5)
    with pytest.raises(ValueError):
        GraphSpec.path(1)
    with pytest.raises(ValueError):
        GraphSpec.cycle(2)
    with pytest.raises(TypeError):
        GraphSpec.path(5.0)


def test_path_adjacency():
    a = GraphSpec.path(3).adjacency()
    assert np.array_equal(a, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_cycle_adjacency():
    a = GraphSpec.cycle(4).adjacency()
    assert np.array_equal(a, [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    assert np.array_equal(a, a.T)


def test_pairs_lexicographic():
    pairs = GraphSpec.path(4).pairs()
    assert pairs == [
        VertexPair(1, 2), VertexPair(1, 3), VertexPair(1, 4),
        VertexPair(2, 3), VertexPair(2, 4), VertexPair(3, 4),
    ]
    assert len(GraphSpec.cycle(15).pairs()) == 15 * 14 // 2


def test_vertex_pair_normalizes():
    assert VertexPair.of(5, 2) == VertexPair(2, 5)


def test_check_vertex():
    g = GraphSpec.path(6)
    with pytest.raises(ValueError):
        g.check_vertex(0)
    with pytest.raises(ValueError):
        g.check_vertex(7)
    with pytest.raises(TypeError):
        g.check_vertex(2.5)


@pytest.mark.parametrize(
    "family, n, i, j, expected",
    [
        ("path", 8, 2, 7, 5),
        ("path", 8, 3, 3, 0),
        ("cycle", 5, 1, 3, 2),
        ("cycle", 4, 1, 3, 2),
        ("cycle", 15, 1, 9, 7),
    ],
)
def test_graph_distance(family, n, i, j, expected):
    assert graphs.graph_distance(GraphSpec(family, n), i, j) == expected


@pytest.mark.parametrize(
    "family, n, i, j, expected",
    [
        ("path", 3, 1, 3, 2.0),
        ("path", 10, 4, 9, 5.0),
        ("cycle", 3, 1, 2, 2.0 / 3.0),
        ("cycle", 4, 1, 3, 1.0),
        ("cycle", 5, 1, 3, 1.2),
        ("cycle", 15, 1, 8, 7.0 * 8.0 / 15.0),
    ],
)
def test_resistance_worked_values(family, n, i, j, expected):
    assert graphs.resistance(GraphSpec(family, n), i, j) == pytest.approx(expected, rel=1e-14)


def test_resistance_against_pseudoinverse_oracle():
    for g in (GraphSpec.path(9), GraphSpec.cycle(11)):
        for p in g.pairs():
            a = graphs.resistance(g, p.i, p.j)
            b = graphs.resistance_oracle(g, p.i, p.j)
            assert a == pytest.approx(b, abs=1e-10)


def test_resistance_symmetry_and_argument_order():
    g = GraphSpec.cycle(9)
    assert graphs.resistance(g, 7, 2) == graphs.resistance(g, 2, 7)
    assert graphs.resistance(g, 4, 4) == 0.0


@pytest.mark.parametrize("n", [2, 3, 7, 25])
def test_path_spectral_radius_closed_form(n):
    g = GraphSpec.path(n)
    assert graphs.spectral_radius(g) == 2.0 * math.cos(math.pi / (n + 1))
    assert graphs.spectral_radius_oracle(g) == pytest.approx(graphs.spectral_radius(g), abs=1e-10)


@pytest.mark.parametrize("n", [3, 4, 12])
def test_cycle_spectral_radius_is_two(n):
    g = GraphSpec.cycle(n)
    assert graphs.spectral_radius(g) == 2.0
    assert graphs.spectral_radius_oracle(g) == pytest.approx(2.0, abs=1e-10)


def test_admissibility_window():
    g = GraphSpec.path(10)
    bound = 1.0 / graphs.spectral_radius(g)
    assert graphs.require_admissible(bound - 1e-6, g) == bound - 1e-6
    for bad in (0.0, -0.1, bound, 0.6):
        with pytest.raises(AdmissibilityError):
            graphs.require_admissible(bad, g)


def test_admissibility_error_message_names_the_graph():
    with pytest.raises(AdmissibilityError, match=r"path\(10\)"):
        graphs.require_admissible(0.6, GraphSpec.path(10))


def test_short_paths_admit_values_above_half():
    # 1/rho for the 5-vertex path is about 0.577, so 0.52 is fine by default
    g = GraphSpec.path(5)
    assert graphs.require_admissible(0.52, g) == 0.52


@pytest.mark.parametrize("g", [GraphSpec.path(2), GraphSpec.path(9), GraphSpec.cycle(3), GraphSpec.cycle(12)])
def test_pair_columns_match_scalar_calls(g):
    # the columns over g.pairs() that the rankings read, from label arrays
    i, j = (labels + 1 for labels in np.triu_indices(g.n, k=1))
    assert list(zip(i.tolist(), j.tolist())) == [(p.i, p.j) for p in g.pairs()]
    assert graphs.graph_distance(g, i, j).tolist() == [graphs.graph_distance(g, p.i, p.j) for p in g.pairs()]
    assert graphs.resistance(g, i, j).tolist() == [graphs.resistance(g, p.i, p.j) for p in g.pairs()]
    # either order, and a scalar label broadcast against an array
    assert graphs.graph_distance(g, j, i).tolist() == graphs.graph_distance(g, i, j).tolist()
    assert graphs.resistance(g, 1, j[i == 1]).tolist() == [graphs.resistance(g, 1, b) for b in range(2, g.n + 1)]


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_label_arrays_give_the_scalar_calls_at_every_span(family):
    for n in range(2 if family == "path" else 3, 402):
        g = GraphSpec(family, n)
        ends = np.arange(2, n + 1)
        distance, resist = graphs.graph_distance(g, 1, ends), graphs.resistance(g, 1, ends)
        assert distance.dtype == np.int64 and resist.dtype == np.float64
        assert distance.tolist() == [graphs.graph_distance(g, 1, 1 + s) for s in range(1, n)]
        want = [graphs.resistance(g, 1, 1 + s) for s in range(1, n)]
        assert np.array_equal(resist.view(np.int64), np.array(want).view(np.int64)), n


def test_label_arrays_are_checked():
    g = GraphSpec.cycle(6)
    for bad in (np.array([0, 2]), np.array([2, 7])):
        for metric in (graphs.graph_distance, graphs.resistance):
            with pytest.raises(ValueError, match="out of range"):
                metric(g, 1, bad)
            with pytest.raises(ValueError, match="out of range"):
                metric(g, bad, 1)
    with pytest.raises(TypeError, match="integers"):
        graphs.graph_distance(g, 1, np.array([2.0, 3.0]))
    assert graphs.graph_distance(g, 1, np.array([], dtype=np.int64)).shape == (0,)
    unsigned = np.array([2, 5, 6], dtype=np.uint8)
    assert graphs.graph_distance(g, 6, unsigned).tolist() == [2, 1, 0]
    assert graphs.graph_distance(g, unsigned[::-1], unsigned).tolist() == [2, 0, 2]
    with pytest.raises(TypeError, match="integer"):
        graphs.graph_distance(g, np.uint8(6), unsigned)
    with pytest.raises(ValueError, match="out of range"):
        graphs.graph_distance(g, 7, unsigned)


# steps of the reference loop: about 1.1 (n + 1)^2 reach its tolerance on a path
THREE_PRODUCT_CAP = 200000


def _three_product_radius(g):
    """spectral_radius_oracle as it was written before repeated squaring, with three products per step."""
    shifted = g.adjacency() + 2.0 * np.eye(g.n)
    v = np.ones(g.n) / math.sqrt(g.n)
    lam = 2.0
    for _ in range(THREE_PRODUCT_CAP):
        w = shifted @ v
        v = w / math.sqrt(float(w @ w))
        lam = float(v @ (shifted @ v))
        residual = shifted @ v - lam * v
        if math.sqrt(float(residual @ residual)) < graphs._POWER_ITERATION_TOL:
            break
    return lam - 2.0


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_spectral_radius_oracle_is_near_the_three_product_loop(family):
    # repeated squaring reaches the same Rayleigh quotient by other products
    for n in range(2 if family == "path" else 3, 41):
        g = GraphSpec(family, n)
        assert abs(graphs.spectral_radius_oracle(g) - _three_product_radius(g)) <= 1e-14, n


LARGE_GRAPHS = [*map(GraphSpec.path, (100, 300, 500)), *map(GraphSpec.cycle, (3, 4, 41, 100, 301, 500))]


@pytest.mark.parametrize("g", LARGE_GRAPHS, ids=lambda g: f"{g.family}{g.n}")
def test_spectral_radius_oracle_converges_on_large_graphs(g):
    # path(500) needs about 277,000 steps of the plain method, more than its
    # old cap of 200,000, and converges here within 20 squarings
    assert abs(graphs.spectral_radius_oracle(g) - graphs.spectral_radius(g)) <= 1e-13


def test_power_iteration_cap_counts_squarings(monkeypatch):
    g = GraphSpec.path(500)
    monkeypatch.setattr(graphs, "_POWER_ITERATION_CAP", 20)
    assert abs(graphs.spectral_radius_oracle(g) - graphs.spectral_radius(g)) <= 1e-13
    monkeypatch.setattr(graphs, "_POWER_ITERATION_CAP", 10)
    with pytest.raises(graphs.PowerIterationError, match=r"path\(500\).* 10 steps of repeated squaring"):
        graphs.spectral_radius_oracle(g)


def test_unconverged_power_iteration_raises(monkeypatch):
    monkeypatch.setattr(graphs, "_POWER_ITERATION_CAP", 3)
    with pytest.raises(graphs.PowerIterationError, match=r"path\(10\).* 3 steps"):
        graphs.spectral_radius_oracle(GraphSpec.path(10))
    assert issubclass(graphs.PowerIterationError, RuntimeError)


@pytest.mark.parametrize("g", [GraphSpec.path(2), GraphSpec.path(9), GraphSpec.cycle(3), GraphSpec.cycle(14)])
def test_resistance_oracle_label_arrays_are_the_scalar_calls(g):
    i, j = (labels + 1 for labels in np.triu_indices(g.n, k=1))
    want = np.array([graphs.resistance_oracle(g, p.i, p.j) for p in g.pairs()])
    for got in (graphs.resistance_oracle(g, i, j), graphs.resistance_oracle(g, j, i)):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a scalar label against an array, either side, and labels equal
    ends = np.arange(1, g.n + 1, dtype=np.uint8)
    row = [graphs.resistance_oracle(g, 1, b) for b in range(1, g.n + 1)]
    assert graphs.resistance_oracle(g, 1, ends).tolist() == row
    assert graphs.resistance_oracle(g, ends, 1).tolist() == row
    assert graphs.resistance_oracle(g, ends, ends).tolist() == [graphs.resistance_oracle(g, v, v) for v in ends.tolist()]


def test_resistance_oracle_label_arrays_are_checked():
    g = GraphSpec.cycle(6)
    for bad in (np.array([0, 2]), np.array([2, 7])):
        with pytest.raises(ValueError, match="out of range"):
            graphs.resistance_oracle(g, 1, bad)
        with pytest.raises(ValueError, match="out of range"):
            graphs.resistance_oracle(g, bad, 1)
    with pytest.raises(TypeError, match="integers"):
        graphs.resistance_oracle(g, 1, np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match="out of range"):
        graphs.resistance_oracle(g, 7, np.array([2]))
    assert graphs.resistance_oracle(g, 1, np.array([], dtype=np.int64)).shape == (0,)


def test_cached_pseudoinverse_is_read_only():
    g = GraphSpec.cycle(8)
    before = graphs.resistance_oracle(g, 2, 5)
    pinv = graphs._laplacian_pinv(g)
    assert pinv is graphs._laplacian_pinv(g)
    with pytest.raises(ValueError, match="read-only"):
        pinv[1, 1] = 100.0
    with pytest.raises(ValueError, match="read-only"):
        pinv += 1.0
    assert graphs.resistance_oracle(g, 2, 5) == before
    assert graphs.resistance_oracle(g, np.array([2]), np.array([5]))[0] == before


DENSE_ORACLES = {
    "katz_oracle_inverse": lambda g: katz.katz_oracle_inverse(g, 0.3),
    "katz_oracle_series": lambda g: katz.katz_oracle_series(g, 0.3),
    "determinant": lambda g: (katz.determinant_path if g.is_path else katz.determinant_cycle)(g.n, 0.3),
    "resistance_oracle": lambda g: graphs.resistance_oracle(g, 1, 2),
    "spectral_radius_oracle": graphs.spectral_radius_oracle,
}


@pytest.mark.parametrize("family", ["path", "cycle"])
@pytest.mark.parametrize("name", list(DENSE_ORACLES))
def test_dense_oracles_refuse_n_above_the_dense_cap_before_building(family, name):
    # the cap is checked where every dense graph matrix starts, before its n x n allocation
    cap = linalg.MAX_DENSE_N
    g = GraphSpec(family, cap + 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(ValueError) as err:
            DENSE_ORACLES[name](g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"dense routines are capped at n = {cap}, got {cap + 1}"
    assert peak < 1 << 20
    assert GraphSpec(family, cap).adjacency().shape == (cap, cap)


def test_resistance_oracles_are_the_one_case_calls():
    cases = [(GraphSpec(family, n), *graphs._pair_labels(n)) for family in ("path", "cycle") for n in (3, 12, 5)]
    cases += [(GraphSpec.cycle(6), 2, 5), (GraphSpec.path(40), np.arange(1, 41), 1)]
    for (g, i, j), got in zip(cases, graphs.resistance_oracles(cases), strict=True):
        want = graphs.resistance_oracle(g, i, j)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_resistance_oracles_check_each_case_before_its_graph_is_eliminated():
    stream = graphs.resistance_oracles([(GraphSpec.cycle(6), 1, 2), (GraphSpec.cycle(6), 1, 7)])
    with pytest.raises(ValueError, match="out of range"):
        next(stream)
