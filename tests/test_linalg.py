import numpy as np
import pytest

from katzlab import linalg


def test_solve_needs_pivoting():
    # zero leading pivot forces a row swap
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(linalg.invert(a), a, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_invert_against_numpy(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    assert np.allclose(linalg.invert(a), np.linalg.inv(a), atol=1e-10)


def test_invert_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
    assert np.allclose(linalg.invert(a) @ a, np.eye(8), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 9, 25])
def test_determinant_against_numpy(n):
    rng = np.random.default_rng(100 + n)
    a = rng.normal(size=(n, n))
    assert linalg.determinant(a) == pytest.approx(float(np.linalg.det(a)), rel=1e-10)


def test_determinant_is_a_python_float():
    assert type(linalg.determinant(np.eye(3))) is float


def test_determinant_tracks_row_swaps():
    # permutation matrix with one transposition has determinant -1
    p = np.eye(4)[[1, 0, 2, 3]]
    assert linalg.determinant(p) == pytest.approx(-1.0, abs=1e-15)


def test_singular_matrix_rejected():
    singular = np.ones((3, 3))
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(singular)
    # the determinant of a singular matrix is simply zero, not an error
    assert linalg.determinant(singular) == 0.0


def test_shape_validation():
    with pytest.raises(ValueError):
        linalg.invert(np.ones((2, 3)))
    too_big = np.eye(linalg.MAX_DENSE_N + 1)
    with pytest.raises(ValueError):
        linalg.determinant(too_big)


def _pivoting_stack(seed, members, n):
    """Non-symmetric random members that need row swaps, each pivoting in its own order."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(members, n, n))
    for index in range(members):
        stack[index] = stack[index][rng.permutation(n)]
    return stack


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 25])
def test_stack_equals_per_matrix_calls(n):
    stack = _pivoting_stack(n, 6, n)
    inv = linalg.invert(stack)
    det = linalg.determinant(stack)
    assert inv.shape == (6, n, n) and det.shape == (6,)
    for index, a in enumerate(stack):
        assert np.array_equal(inv[index], linalg.invert(a))
        assert det[index] == linalg.determinant(a)


def test_stack_members_pivot_differently():
    # the same rows in two orders, plus a member that needs no swap at all
    a = np.array([[1.0, 2.0, 0.5], [4.0, 1.0, 3.0], [2.0, 7.0, 1.0]])
    stack = np.array([a, a[[2, 0, 1]], np.triu(a) + 5.0 * np.eye(3)])
    det = linalg.determinant(stack)
    inv = linalg.invert(stack)
    for index, member in enumerate(stack):
        assert det[index] == linalg.determinant(member)
        assert np.array_equal(inv[index], linalg.invert(member))
    assert det[0] == pytest.approx(np.linalg.det(a), rel=1e-13)
    assert det[1] == pytest.approx(det[0], rel=1e-13)


def test_stack_keeps_its_leading_axes():
    stack = _pivoting_stack(9, 6, 5).reshape(2, 3, 5, 5)
    assert linalg.determinant(stack).shape == (2, 3)
    assert linalg.invert(stack).shape == (2, 3, 5, 5)


def test_singular_member_in_a_stack():
    stack = _pivoting_stack(4, 3, 3)
    stack[1] = np.ones((3, 3))
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(stack)
    det = linalg.determinant(stack)
    assert det[1] == 0.0
    assert det[0] == linalg.determinant(stack[0]) and det[2] == linalg.determinant(stack[2])


def test_stack_shape_validation():
    with pytest.raises(ValueError):
        linalg.determinant(np.ones((2, 3, 4)))
    # the cap is on the matrices, not on how many there are
    with pytest.raises(ValueError):
        linalg.determinant(np.zeros((2, linalg.MAX_DENSE_N + 1, linalg.MAX_DENSE_N + 1)))
    assert linalg.determinant(np.broadcast_to(np.eye(2), (linalg.MAX_DENSE_N + 1, 2, 2))).shape == (
        linalg.MAX_DENSE_N + 1,
    )


def _layouts(x):
    """x C-ordered, Fortran-ordered, and as a non-contiguous slice of a wider array."""
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
    wide[..., ::2] = x
    return [np.ascontiguousarray(x), np.asfortranarray(x), wide[..., ::2]]


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=lambda lead: f"lead{len(lead)}")
@pytest.mark.parametrize("n", [3, 7, 11])
def test_results_do_not_depend_on_memory_layout(n, lead):
    rng = np.random.default_rng(100 * n + len(lead))
    a = rng.normal(size=lead + (n, n)) + n * np.eye(n)
    a_forms = _layouts(a)
    assert not a_forms[1].flags.c_contiguous and not a_forms[2].flags.c_contiguous
    want_inverse = linalg.invert(a_forms[0])
    want_det = linalg.determinant(a_forms[0])
    for a_form in a_forms:
        assert np.array_equal(linalg.invert(a_form), want_inverse)
        assert np.array_equal(linalg.determinant(a_form), want_det)


def _dominant(rng, n):
    """A matrix dominant by columns: elimination keeps it so, and partial pivoting never leaves the diagonal."""
    a = rng.normal(size=(n, n))
    return a + np.diag(np.abs(a).sum(axis=0) + 1.0)


def _swap_columns(stack):
    """Per column, how many members exchange rows there, from one elimination of a copy."""
    _, swapped = linalg._eliminate(np.array(stack, dtype=float), None)
    return swapped.sum(axis=0)


def _assert_members_are_lone_calls(stack):
    n = stack.shape[-1]
    inv, det = linalg.invert(stack), linalg.determinant(stack)
    for index, a in enumerate(stack):
        assert np.array_equal(inv[index], linalg.invert(a))
        assert det[index] == linalg.determinant(a)
    assert inv.shape == (len(stack), n, n)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_stack_where_no_member_exchanges_rows(n):
    rng = np.random.default_rng(200 + n)
    stack = np.array([_dominant(rng, n) for _ in range(4)])
    assert _swap_columns(stack).tolist() == [0] * n
    _assert_members_are_lone_calls(stack)
    assert linalg.determinant(stack[0]) == pytest.approx(np.linalg.det(stack[0]), rel=1e-12)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_stack_where_only_some_members_exchange_rows(n):
    # dominant members never exchange rows; their row-reversed copies do
    # at the first column, so every column with an exchange has members
    # that exchange and members that do not
    rng = np.random.default_rng(300 + n)
    dominant = [_dominant(rng, n) for _ in range(3)]
    stack = np.array([dominant[0], dominant[1][::-1], dominant[2], dominant[0][::-1]])
    counts = _swap_columns(stack)
    assert counts[0] == 2 and counts.max() <= 2
    _, swapped = linalg._eliminate(stack.copy(), None)
    assert not swapped[[0, 2]].any() and swapped[[1, 3], 0].all()
    _assert_members_are_lone_calls(stack)
    # a row reversal is floor(n/2) transpositions
    assert linalg.determinant(stack[3]) == pytest.approx((-1) ** (n // 2) * linalg.determinant(stack[0]), rel=1e-12)
