"""Dense Gaussian elimination with partial pivoting, on numpy arrays.

One elimination, :func:`_reduced`, serves every entry point.  It takes a
sequence of square stacks of mixed orders and works chunk by chunk:
consecutive stacks join a chunk while it holds at most CHUNK_ENTRIES
entries, each member embedded block-diagonally in the identity of the
chunk's largest order, and the chunk is eliminated once, each member
picking its own pivot rows.  :func:`inverses` back-substitutes each chunk
against the identity, and :func:`determinants` takes the signed product of
its pivots; :func:`invert` and :func:`determinant` are their one-stack
calls.  A stack is an array of shape (..., n, n); a plain (n, n) matrix is
the stack with no leading axes.

Padding is exact.  A padding row holds zero in every column a member
pivots on, so it never wins a pivot, and every update it meets subtracts
an exact zero; back-substitution runs column by column with elementwise
products and no matmul, so no sum is regrouped.  Each finite member thus
gets the bits it gets alone, whatever chunk it rides in and whatever BLAS
numpy was built with.

Hand-rolled on purpose: the closed forms elsewhere in the package are
determinant identities, and the oracles that check them must not share a
factorization backend with anything cleverer.  Row operations are
vectorized, but the algorithm is the textbook one.  Sizes are desk-scale:
order n is capped at :data:`MAX_DENSE_N` by :func:`require_dense_size`,
which the elimination applies to every stack it is handed, and which
``GraphSpec.adjacency`` in ``graphs`` applies before any dense graph
matrix is allocated.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

MAX_DENSE_N = 512
# Entries of one chunk, padding included: (matrices) x (largest order)^2.
# A stack that alone holds more is a chunk of its own.  At 2**15 the quick
# verify sweeps ran a few percent faster but peaked about 1 MB higher in
# RSS; at 2**14 the peak is within 0.1 MB of one elimination per graph.
CHUNK_ENTRIES = 2**14


class SingularMatrixError(RuntimeError):
    """A zero pivot column turned up; the system has no unique solution."""


def require_dense_size(n: int) -> None:
    """Validate n <= MAX_DENSE_N, before a dense routine of order n builds anything (ValueError)."""
    if n > MAX_DENSE_N:
        raise ValueError(f"dense routines are capped at n = {MAX_DENSE_N}, got {n}")


def _checked_square(a) -> np.ndarray:
    """a as a float array of shape (..., n, n), with n within the dense cap."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    require_dense_size(m.shape[-1])
    return m


def _spans(shapes: list[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], slice]]:
    """Each stack shape of a chunk with the slice of the chunk's members it fills."""
    start = 0
    for shape in shapes:
        stop = start + math.prod(shape[:-2])
        yield shape, slice(start, stop)
        start = stop


def _identities(order: int, count: int) -> np.ndarray:
    """count identity matrices of the order, the member axis last: shape (order, order, count)."""
    stack = np.empty((order, order, count))
    stack[...] = np.eye(order)[:, :, None]
    return stack


def _padded(chunk: list[np.ndarray], count: int, order: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """(stack shapes, m): m, shape (N, N, s), holds the chunk's s matrices embedded in the identity of order N."""
    shapes = [a.shape for a in chunk]
    m = _identities(order, count)
    for a, (_, span) in zip(chunk, _spans(shapes)):
        n = a.shape[-1]
        m[:n, :n, span] = a.reshape(span.stop - span.start, n, n).transpose(1, 2, 0)
    return shapes, m


def _chunks(stacks: Iterable) -> Iterator[tuple[list[tuple[int, ...]], np.ndarray]]:
    """:func:`_padded` of each chunk: consecutive checked stacks within CHUNK_ENTRIES padded entries."""
    chunk, count, order = [], 0, 0
    for stack in stacks:
        a = _checked_square(stack)
        n, members = a.shape[-1], math.prod(a.shape[:-2])
        top = max(order, n)
        if chunk and (count + members) * top * top > CHUNK_ENTRIES:
            # the stacks are dropped once padded: a chunk lives on in m alone
            padded, chunk, count, top = _padded(chunk, count, order), [], 0, n
            yield padded
        chunk.append(a)
        count += members
        order = top
    if chunk:
        yield _padded(chunk, count, order)


def _reduced(stacks: Iterable, with_identity: bool):
    """Per chunk, (its stack shapes, m, x, pivots, swapped) after reducing each member to upper-triangular form.

    m, shape (N, N, s), holds the chunk's s members padded to its largest
    order N, the member axis last, so every row operation runs over all
    members in one long inner loop; x is the identity taking the same row
    operations, or None without with_identity.  pivots and swapped, both
    (N, s), hold each column's pivot and whether its search exchanged
    rows.  A member whose column holds no nonzero pivot records 0.0 and
    skips that column; the others are not affected.
    """
    for shapes, m in _chunks(stacks):
        order, count = m.shape[1:]
        x = _identities(order, count) if with_identity else None
        pivots = np.empty((order, count))
        swapped = np.empty((order, count), dtype=bool)
        for col in range(order):
            pivot_row = col + np.argmax(np.abs(m[col:, col]), axis=0)
            moved = pivot_row != col
            swapped[col] = moved
            if moved.any():
                # only the members whose pivot row moves exchange rows
                members = np.flatnonzero(moved)
                rows = pivot_row[members]
                for arr in (m,) if x is None else (m, x):
                    top = arr[col, :, members]
                    arr[col, :, members] = arr[rows, :, members]
                    arr[rows, :, members] = top
            pivot = m[col, col].copy()
            pivots[col] = pivot
            pivot[pivot == 0.0] = 1.0
            factors = m[col + 1 :, col] / pivot
            m[col + 1 :, col:] -= factors[:, None] * m[col, None, col:]
            if x is not None:
                x[col + 1 :] -= factors[:, None] * x[col, None]
        yield shapes, m, x, pivots, swapped


def inverses(stacks: Iterable) -> Iterator[np.ndarray]:
    """The inverse of each square matrix or stack in turn, from one chunked elimination against the identity.

    Back-substitution runs from the last column up: column k of the
    reduced system is divided by its pivot, then its multiple is
    subtracted from every row above.  A stack with a zero pivot column
    raises SingularMatrixError when its turn comes.
    """
    for shapes, m, x, pivots, _ in _reduced(stacks, True):
        # a singular member raises below before its garbage is read; 1.0 keeps its division quiet
        diagonal = np.where(pivots == 0.0, 1.0, pivots)
        for col in range(len(m) - 1, -1, -1):
            x[col] /= diagonal[col]
            x[:col] -= m[:col, col, None] * x[col, None]
        for shape, span in _spans(shapes):
            zero_cols = np.flatnonzero((pivots[:, span] == 0.0).any(axis=1))
            if zero_cols.size:
                raise SingularMatrixError(f"zero pivot in column {zero_cols[0]}")
            n = shape[-1]
            yield np.ascontiguousarray(x[:n, :n, span].transpose(2, 0, 1)).reshape(shape)


def determinants(stacks: Iterable) -> Iterator:
    """The determinant of each square matrix or stack in turn, as the signed product of its elimination pivots.

    A float for a matrix, an array of shape (...) for a stack (..., n, n).
    A member with a zero pivot column has determinant 0.0.
    """
    for shapes, _, _, pivots, swapped in _reduced(stacks, False):
        det = np.ones(pivots.shape[1])
        for col in range(len(pivots)):
            det = np.where(swapped[col], -det, det) * pivots[col]
        det[(pivots == 0.0).any(axis=0)] = 0.0
        for shape, span in _spans(shapes):
            yield float(det[span][0]) if len(shape) == 2 else det[span].reshape(shape[:-2])


def invert(a) -> np.ndarray:
    """Inverse of a square matrix, or of each member of a stack: the one-stack call of :func:`inverses`."""
    return next(inverses([a]))


def determinant(a):
    """Determinant of a square matrix (a float), or of each member of a stack (an array of shape (...)).

    The one-stack call of :func:`determinants`.
    """
    return next(determinants([a]))
