"""Dense Gaussian elimination with partial pivoting, on numpy arrays.

Two entry points, the ones the dense oracles use, each running the one
elimination, :func:`_eliminate`, itself: :func:`invert`, which eliminates
against the identity and back-substitutes, and :func:`determinant`, the
signed product of the pivots.

Hand-rolled on purpose: the closed forms elsewhere in the package are
determinant identities, and the oracles that check them must not share a
factorization backend with anything cleverer.  Row operations are
vectorized, but the algorithm is the textbook one.  Sizes are desk-scale:
order n is capped at :data:`MAX_DENSE_N` by :func:`require_dense_size`,
which both entry points apply to the matrices they are handed, and which
``GraphSpec.adjacency`` in ``graphs`` applies before any dense graph
matrix is allocated.

Both take a stack of matrices, shape (..., n, n), and run the same
elimination on all members at once: each member picks its own pivot row
and swaps its own rows, so every member gets exactly the arithmetic it
would get alone.  A plain (n, n) matrix is the stack with no leading axes.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DENSE_N = 512


class SingularMatrixError(RuntimeError):
    """A zero pivot column turned up; the system has no unique solution."""


def require_dense_size(n: int) -> None:
    """Validate n <= MAX_DENSE_N, before a dense routine of order n builds anything (ValueError)."""
    if n > MAX_DENSE_N:
        raise ValueError(f"dense routines are capped at n = {MAX_DENSE_N}, got {n}")


def _checked_square(a) -> np.ndarray:
    """A C-ordered float copy of a square matrix or stack, the elimination's work space.

    C order whatever a's layout: matmul hands only C-ordered blocks to BLAS,
    so another layout would round the back-substitution differently.
    """
    m = np.array(a, dtype=float, order="C")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    require_dense_size(m.shape[-1])
    return m


def _eliminate(m: np.ndarray, rhs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Reduce each member of m, shape (s, n, n), to upper-triangular form in place.

    rhs, shape (s, n, k), takes the same row operations.  Returns the pivots
    and whether each column's pivot search swapped rows, both (s, n).  A
    member whose column holds no nonzero pivot records 0.0 and skips that
    column; the others are not affected.
    """
    s, n, _ = m.shape
    pivots = np.empty((s, n))
    swapped = np.empty((s, n), dtype=bool)
    for col in range(n):
        pivot_row = col + np.argmax(np.abs(m[:, col:, col]), axis=1)
        moved = pivot_row != col
        swapped[:, col] = moved
        if moved.any():
            # only the members whose pivot row moves exchange rows
            members = np.flatnonzero(moved)
            rows = pivot_row[members]
            for arr in (m,) if rhs is None else (m, rhs):
                top = arr[members, col]
                arr[members, col] = arr[members, rows]
                arr[members, rows] = top
        pivot = m[:, col, col].copy()
        pivots[:, col] = pivot
        pivot[pivot == 0.0] = 1.0
        factors = m[:, col + 1 :, col] / pivot[:, None]
        m[:, col + 1 :, col:] -= factors[:, :, None] * m[:, col, None, col:]
        if rhs is not None:
            rhs[:, col + 1 :] -= factors[:, :, None] * rhs[:, col, None, :]
    return pivots, swapped


def invert(a) -> np.ndarray:
    """Inverse via elimination against the identity and back-substitution, member by member for a stack."""
    m = _checked_square(a)
    lead, n = m.shape[:-2], m.shape[-1]
    m = m.reshape(math.prod(lead), n, n)
    # A C-ordered copy, not the broadcast view: the solution takes the
    # layout of the right-hand side, and matmul only hands C-ordered member
    # blocks to BLAS, so a view would sum the back-substitution products in
    # another order than a lone matrix gets.
    x = np.broadcast_to(np.eye(n), m.shape).copy()
    pivots, _ = _eliminate(m, x)
    zero_cols = np.flatnonzero((pivots == 0.0).any(axis=0))
    if zero_cols.size:
        raise SingularMatrixError(f"zero pivot in column {zero_cols[0]}")
    # from the bottom row up, each row of the reduced right-hand side becomes that row of x
    for row in range(n - 1, -1, -1):
        x[:, row] = (x[:, row] - (m[:, row, None, row + 1 :] @ x[:, row + 1 :])[:, 0]) / m[:, row, row, None]
    return x.reshape(lead + (n, n))


def determinant(a):
    """Determinant as the signed product of elimination pivots.

    A float for one matrix, an array of shape (...) for a stack (..., n, n).
    A member with a zero pivot column has determinant 0.0.
    """
    m = _checked_square(a)
    lead, n = m.shape[:-2], m.shape[-1]
    pivots, swapped = _eliminate(m.reshape(math.prod(lead), n, n), None)
    det = np.ones(pivots.shape[0])
    for col in range(n):
        det = np.where(swapped[:, col], -det, det) * pivots[:, col]
    det[(pivots == 0.0).any(axis=1)] = 0.0
    return float(det[0]) if m.ndim == 2 else det.reshape(lead)
