"""Deterministic instance generators.

The explicit constructions build the two families with provable properties:
a family whose lattices have no vector of infinity norm below 2 although
their subdeterminants stay at delta, and a standard-form system whose unique
nonnegative integer solution is the all-ones vector.  Random generation uses
Python's Mersenne Twister (``random.Random``) seeded explicitly, so an
identical seed reproduces the identical instance on every platform; this is
generator version 1 and any change to the sampling sequence would bump it.
"""

from __future__ import annotations

import random

from .errors import DimensionError, DomainError
from .linalg import IntMatrix, det, rank

GENERATOR_VERSION = 1


def complete_digraph_incidence(k: int, ordered: bool) -> IntMatrix:
    """Arc-node incidence matrix of the complete digraph on k nodes.

    Rows are arcs in lexicographic order with +1 at the source column and -1
    at the target.  ``ordered=False`` keeps one arc (i, j) per pair i < j;
    ``ordered=True`` keeps all k*(k-1) ordered pairs.  Needs k >= 2 so that
    at least one arc exists.
    """
    if k < 2:
        raise DomainError("need at least 2 nodes for a nonempty arc set")
    rows = []
    for i in range(k):
        for j in range(i + 1 if not ordered else 0, k):
            if i == j:
                continue
            row = [0] * k
            row[i] = 1
            row[j] = -1
            rows.append(row)
    return IntMatrix.from_rows(rows)


def lower_bound_instance(delta: int) -> IntMatrix:
    """Matrix with all full-rank subdeterminants of magnitude delta and no
    lattice vector of infinity norm 1.

    Product of the complete-digraph incidence matrix on delta nodes (last
    column deleted) with a square matrix of determinant delta.  Dimensions:
    C(delta, 2) rows, delta - 1 columns.
    """
    if delta < 2:
        raise DomainError("construction needs delta >= 2")
    size = delta - 1
    incidence = complete_digraph_incidence(delta, ordered=False)
    t = incidence.submatrix(range(incidence.rows), range(size))
    b_rows = [[1 if i == j else 0 for j in range(size)] for i in range(size - 1)]
    b_rows.append([delta - 1] * (size - 1) + [delta])
    return t.matmul(IntMatrix.from_rows(b_rows))


def sparsity_instance(delta: int) -> tuple[IntMatrix, tuple[int, ...]]:
    """Standard-form system whose only nonnegative integer solution is 1.

    Returns (A, b) with A of size m x n, m = (delta-1)^2 + 1 and
    n = m + delta - 1.  A is totally delta-modular, has full row rank, and
    A @ 1 == b, so every optimal solution has support m + delta - 1
    regardless of the objective.
    """
    if delta < 2:
        raise DomainError("construction needs delta >= 2")
    m = (delta - 1) ** 2 + 1
    n = m + delta - 1
    k = delta - 1
    rows = []
    # coupling rows: x_i + x_{k+i} = 2
    for i in range(k):
        row = [0] * n
        row[i] = 1
        row[k + i] = 1
        rows.append(row)
    # circulation rows: one slack per arc of the complete digraph on k nodes
    if m - delta > 0:
        t = complete_digraph_incidence(k, ordered=True)
        for arc_index in range(t.rows):
            row = list(t.row(arc_index)) + [0] * (n - k)
            row[2 * k + arc_index] = 1
            rows.append(row)
    # balance row: -sum of the first k variables + delta * x_n = 1
    last = [0] * n
    for i in range(k):
        last[i] = -1
    last[n - 1] = delta
    rows.append(last)
    b = tuple([2] * k + [1] * (m - delta) + [1])
    return IntMatrix.from_rows(rows), b


def random_delta_modular(
    delta: int, rows: int, cols: int, seed: int
) -> IntMatrix:
    """Seeded random matrix whose full-rank subdeterminants are all 0 or
    +-delta, with delta attained.

    Builds a random totally unimodular matrix T (each row has at most one +1
    and one -1, with unit rows appended for full column rank), multiplies by
    a determinant-delta square matrix scrambled by unimodular row operations,
    and applies a seeded row permutation.  Every full-rank minor of the
    product is a full-rank minor of T times the square factor's determinant.
    """
    if delta < 1:
        raise DomainError("delta must be >= 1")
    if cols < 1 or rows < cols:
        raise DimensionError("need rows >= cols >= 1")
    rng = random.Random(seed)

    t_rows = [[0] * cols for _ in range(rows - cols)]
    for row in t_rows:
        i = rng.randrange(cols)
        row[i] = 1
        if cols > 1 and rng.random() < 0.8:
            j = rng.randrange(cols - 1)
            if j >= i:
                j += 1
            row[j] = -1
    for i in range(cols):
        unit = [0] * cols
        unit[i] = 1
        t_rows.append(unit)

    b = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    b[cols - 1] = [delta - 1] * (cols - 1) + [delta]
    for _ in range(3 * cols):
        i = rng.randrange(cols)
        j = rng.randrange(cols)
        if i == j:
            continue
        factor = rng.choice((-2, -1, 1, 2))
        b[i] = [x + factor * y for x, y in zip(b[i], b[j])]
    assert abs(det(IntMatrix.from_rows(b))) == delta

    product = IntMatrix.from_rows(t_rows).matmul(IntMatrix.from_rows(b))
    order = list(range(rows))
    rng.shuffle(order)
    result = product.submatrix_rows(order)
    assert rank(result) == cols
    return result


def random_full_column_rank(
    rng: random.Random, rows: int, cols: int, low: int, high: int
) -> IntMatrix:
    """Rejection-samples a matrix with entries in [low, high] and full column rank."""
    if rows < cols:
        raise DimensionError("need rows >= cols")
    while True:
        m = IntMatrix.from_rows(
            [[rng.randint(low, high) for _ in range(cols)] for _ in range(rows)]
        )
        if rank(m) == cols:
            return m


def random_full_row_rank(
    rng: random.Random, rows: int, cols: int, low: int, high: int
) -> IntMatrix:
    """Rejection-samples a matrix with entries in [low, high] and full row rank."""
    if cols < rows:
        raise DimensionError("need cols >= rows")
    while True:
        m = IntMatrix.from_rows(
            [[rng.randint(low, high) for _ in range(cols)] for _ in range(rows)]
        )
        if rank(m) == rows:
            return m
