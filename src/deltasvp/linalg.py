"""Exact integer and rational linear algebra on dense matrices.

Everything here works with Python's arbitrary-precision integers; there is
no floating point anywhere.  All exact elimination goes through one
fraction-free pivot (Bareiss 1968, in the pivot form of Edmonds 1967):
every intermediate entry is a minor of the input, so values stay
polynomially bounded.  Determinants, rank and the greedy invertible row set
use forward elimination.  ``Tableau(rows, adj, det, numerators)`` holds the
basis rows, adj(B), det(B) and N = A*adj(B); it is the only route to an
inverse, B^-1 = adj / det.  Only the n x n transform +-adj(B)^T is
eliminated, each row of A entering it as it is scanned.  The transform is
column-packed (Kronecker substitution): each column is one big integer
whose signed base-2^w digits are its entries, so a scanned row's column and
each pivot's update are a few big-integer products per column.  The word
width w is proved, not guessed: a tracked bound covers every digit, since
a digit out of range carries into all the digits above it, and when the
bound reaches 2^(w-1) the columns are read exactly and repacked wider if
they need it.  N is read off the packed product A*adj(B) that certifies
the tableau: the words read must write back to the product's bytes, so N
is A*adj(B) exactly, and N == det(B)*I at the basis rows, which proves
B*adj(B) == det(B)*I.
The other eliminations, the polyhedral verifiers among them, use the list
pivot ``_pivot``.
Every maximal-minor scan reads its minors off one iterator, ``_minors``
(each k-subset in lexicographic order, one forward elimination each), and
every enumeration has one budget gate, ``_check_budget``, which refuses it
up front rather than truncate.  Every box scan (the oracles, lattice
points, standard-form programs) goes through ``box_images``, which splits
the box into two halves and caches the images of the trailing one, so each
point costs one vector addition instead of a full product A x.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, combinations, product
from operator import add, itemgetter, mul, neg
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    DimensionError,
    DomainError,
    InvariantError,
    RankError,
    SingularMatrixError,
)

#: Default cap on the number of minors an enumeration may evaluate.
DEFAULT_MINOR_BUDGET = 2_000_000


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers, row-major.

    IntMatrix(...) and from_rows check the shape and every entry; the
    matrices the library builds from checked ones (products, transposes,
    submatrices, normal forms, tableaux) and the matrices textio parses,
    whose rows it has checked itself, skip that through _trusted.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # rows that are not tuples (lists) would leave the matrix mutable;
        # tuple() returns a tuple row itself, so tuple input is kept as given
        entries = tuple(map(tuple, self.entries))
        if entries != self.entries:
            object.__setattr__(self, "entries", entries)
        if len(entries) == 0:
            raise DimensionError("matrix needs at least one row")
        width = len(entries[0])
        if width == 0:
            raise DimensionError("matrix needs at least one column")
        for row in entries:
            if len(row) != width:
                raise DimensionError("ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise DimensionError(f"non-integer entry {x!r}")

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """A matrix of entries the library built or parsed itself: a
        nonempty tuple of equally long, nonempty tuples of ints, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        return m

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 1:
            raise DimensionError("identity needs n >= 1")
        return IntMatrix._trusted(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self.entries)))

    def submatrix_rows(self, row_indices: Sequence[int]) -> "IntMatrix":
        if not row_indices:
            raise DimensionError("matrix needs at least one row")
        return IntMatrix._trusted(tuple(self.entries[i] for i in row_indices))

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "IntMatrix":
        if not row_indices:
            raise DimensionError("matrix needs at least one row")
        if not col_indices:
            raise DimensionError("matrix needs at least one column")
        return IntMatrix._trusted(
            tuple(tuple(self.entries[i][j] for j in col_indices) for i in row_indices)
        )

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        cols = other.transpose().entries
        return IntMatrix._trusted(
            tuple(
                tuple(sum(map(mul, row, col)) for col in cols)
                for row in self.entries
            )
        )

    def matvec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DimensionError(f"vector of length {len(vec)} against {self.shape}")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols


def _require_square(m: IntMatrix) -> int:
    if not m.is_square():
        raise DimensionError(f"square matrix required, got {m.shape}")
    return m.rows


def _pivot(work: list[list[int]], r: int, c: int, prev: int, first: int) -> None:
    """One integer-preserving pivot on work[r][c] (Bareiss 1968, Edmonds 1967).

    Every row i >= first other than r becomes (p*row - f*pivot_row) // prev,
    with p the pivot, f = row[c] and prev the previous pivot (1 before the
    first).  Sylvester's identity makes the division exact: every entry stays
    a minor of the input.  A row with f == 0 is left alone when p == prev,
    because its update would change nothing.
    """
    pivot_row = work[r]
    p = pivot_row[c]
    for i in range(first, len(work)):
        row = work[i]
        f = row[c]
        if i == r or (f == 0 and p == prev):
            continue
        work[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]


def _eliminate(
    work: list[list[int]], columns: Iterable[int], reduce: bool
) -> tuple[list[int], int]:
    """Fraction-free elimination of work in place, trying the given columns
    in order and pivoting on the first nonzero entry at or below the next
    pivot row; a column without one is skipped.

    Returns the pivot columns (pivot k sits in row k) and the signed
    determinant of the pivot rows and columns, which is det(work) when work
    is square with full rank.  With reduce=True the rows above each pivot
    are cleared too, so every pivot row ends with the last pivot at its
    pivot column and zeros at the other pivot columns.
    """
    pivots: list[int] = []
    sign = prev = 1
    for c in columns:
        r = len(pivots)
        if r == len(work):
            break
        i = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if i is None:
            continue
        if i != r:
            work[r], work[i] = work[i], work[r]
            sign = -sign
        _pivot(work, r, c, prev, 0 if reduce else r + 1)
        prev = work[r][c]
        pivots.append(c)
    return pivots, sign * prev


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free forward elimination."""
    n = _require_square(m)
    pivots, d = _eliminate([list(row) for row in m.entries], range(n), reduce=False)
    return d if len(pivots) == n else 0


@dataclass(frozen=True)
class Tableau:
    """A seen through the basis B = A[rows]: B^-1 = adj(B) / det(B) and
    A * B^-1 = N / det(B) with N = A * adj(B).

    det keeps its sign and is never reduced against adj or N: the solver
    reads residues of their entries modulo |det(B)| itself.
    """

    rows: tuple[int, ...]
    adj: IntMatrix
    det: int
    numerators: IntMatrix

    def swapped_det(self, swaps: dict[int, int]) -> int:
        """|det B'| for B' = B with row swaps[j] of A at position j, by the
        determinant-ratio identity.

        B' = M * B, where M is the identity except that its rows J (the keys)
        are the rows I (the values) of A * B^-1 = N / det(B).  So det B' =
        det(B) * det M[J, J] and |det B'| = |det N[I, J]| / |det B|^(k-1)
        for k = |J|.  InvariantError when that division is inexact.
        """
        k = len(swaps)
        minor = [[self.numerators.entries[i][j] for j in swaps] for i in swaps.values()]
        pivots, value = _eliminate(minor, range(k), reduce=False)
        if len(pivots) < k:
            return 0
        quotient, remainder = divmod(abs(value), abs(self.det) ** (k - 1))
        if remainder:
            raise InvariantError("determinant ratio is not an integer")
        return quotient


def tableau(a: IntMatrix, rows: Sequence[int] | None = None) -> Tableau:
    """Basis, adj(B), det(B) and N = A * adj(B) for an m x n matrix A.

    Only the n x n transform R is eliminated, and it is column-packed
    (Kronecker substitution): column j of R is the one integer
    C_j = sum_i R[i][j] * 2^(w*i), whose signed base-2^w digits are its
    entries.  The reduced fraction-free elimination of [A^T | I] is
    R * [A^T | I] at every step, so the column of A's row c is R * a_c, the
    packed integer F = sum_j a_c[j] * C_j, and its digits f are read as
    words with the bias and XOR of _certify.  Row c is independent of the
    pivots so far iff f is nonzero at a free position (one not pivoted on);
    the lowest such position q is the pivot, with p = f[q].  The pivot is
    _pivot's update on the columns: C_j becomes (p * C_j - R[q][j] * h)
    // prev with h = F - prev * 2^(w*q), so row q stays and every other row
    i becomes (p * R[i][j] - f[i] * R[q][j]) / prev, exactly, digit by
    digit.  A column with R[q][j] == 0 is left alone when p == prev.  Row q
    of R is prev at column q and 0 at the other free columns, so only the
    pivoted columns are read for it.  Positions are never swapped: pivot k
    sits at position slots[k], whose parity is the row-swap sign s.

    The width is proved, never guessed: a digit out of range carries into
    every digit above it, so bound covers every digit of R, not only those
    read.  F's digits are at most ||a_c||_1 * bound.  After a pivot, row q
    keeps its digits, at most max|R[q]|, and every other digit is at most
    (|p| * bound + max|f| * max|R[q]|) / |prev|.  When either bound reaches
    2^(w-1), the columns are read exactly (every digit still fits), bound
    becomes their largest |digit|, and if the bound still reaches 2^(w-1)
    they are repacked at the least multiple of 64 bits that holds it.

    With rows=None the candidates are A's rows in order, so the pivots are
    the greedy invertible row set, exactly find_invertible_rows(a), and
    RankError is raised below full column rank.  Otherwise step k pivots on
    row rows[k], so B = a[rows] keeps that row order, and
    SingularMatrixError is raised when it is singular.  At the end row
    slots[k] of R * B^T is p * e_k with p = s * det(B) the last pivot, so
    adj(B)[j][k] = s * R[slots[k]][j].  N is read off the packed product
    A * adj(B) that _certify computes, which also certifies
    N[rows] == det(B) * I.
    """
    m, n = a.rows, a.cols
    if rows is not None and (len(rows) != n or any(not 0 <= i < m for i in rows)):
        raise DimensionError(f"basis needs {n} row indices in range({m})")
    width, bound, prev, sign = _WORD, 1, 1, 1
    columns = [1 << (width * j) for j in range(n)]  # R = I
    digit, bias, free = (1 << width) - 1, _bias(n, width), (1 << (width * n)) - 1
    slots = list(range(n))  # the pivots' positions in order, then the free ones
    pivots: list[int] = []

    def refit(reach) -> bool:
        """Reads the columns exactly, sets bound to their largest |digit|,
        and repacks them wider if 2^(width-1) <= reach(bound); True if it
        did."""
        nonlocal columns, width, bound, digit, bias, free
        words = _unpack(columns, n, width)
        bound = max(map(abs, words))
        need = reach(bound).bit_length() + 1
        if need <= width:
            return False
        width = -(-need // _WORD) * _WORD
        columns = _pack(words, n, width)
        digit, bias = (1 << width) - 1, _bias(n, width)
        free = sum(digit << (width * j) for j in slots[len(pivots) :])
        return True

    for c in range(m) if rows is None else rows:
        k = len(pivots)
        if k == n:
            break
        entries = a.entries[c]
        norm = sum(map(abs, entries))
        if norm * bound >> (width - 1):
            refit(lambda x: norm * x)
        column = sum(map(mul, entries, columns))
        words = (column + bias) ^ bias  # the digits as two's-complement words
        lowest = words & free
        if not lowest:
            continue
        q = ((lowest & -lowest).bit_length() - 1) // width  # its lowest set bit's digit
        f = _read_words(words.to_bytes(n * width // 8, "little"), width)
        p, shift, half = f[q], width * q, 1 << (width - 1)
        # R[q] at the pivoted columns; it is prev at column q, 0 at the other free ones
        row = [((columns[j] + bias) >> shift & digit) - half for j in slots[:k]]
        top, top_row = max(map(abs, f)), max(map(abs, [prev, *row]))

        def reach(x: int) -> int:
            return max(top_row, (abs(p) * x + top * top_row) // abs(prev))

        grown = reach(bound)
        if grown >> (width - 1):
            if refit(reach):
                column, shift = sum(map(mul, entries, columns)), width * q
            grown = reach(bound)
        bound = grown
        i = slots.index(q, k)
        if i != k:
            slots[k], slots[i] = q, slots[k]
            sign = -sign
        h = column - (prev << shift)
        for j, r in zip(slots, row):
            if r or p != prev:
                columns[j] = (p * columns[j] - r * h) // prev
        columns[q] = (p << shift) - h
        if p != prev:
            for j in slots[k + 1 :]:
                columns[j] = p << (width * j)
        free ^= digit << shift
        pivots.append(c)
        prev = p
    if len(pivots) < n:
        if rows is None:
            raise RankError(f"matrix has rank {len(pivots)} < {n} columns")
        raise SingularMatrixError("selected basis rows are singular")
    words = _unpack(columns, n, width)
    if sign < 0:
        words = list(map(neg, words))
    pick = itemgetter(*slots) if n > 1 else tuple
    adj = IntMatrix._trusted(tuple(pick(words[j : j + n]) for j in range(0, n * n, n)))
    d = sign * prev
    return Tableau(tuple(pivots), adj, d, _certify(a, pivots, adj, d))


def _bias(n: int, width: int) -> int:
    """2^(width-1) in each of n base-2^width digits."""
    return ((1 << (width * n)) - 1) // ((1 << width) - 1) << (width - 1)


def _unpack(packed: Sequence[int], n: int, width: int) -> list[int]:
    """The n signed base-2^width digits of each packed integer, lowest
    first; every digit must lie in [-2^(width-1), 2^(width-1))."""
    bias, size = _bias(n, width), n * width // 8
    return _read_words(
        b"".join([((x + bias) ^ bias).to_bytes(size, "little") for x in packed]), width
    )


def _pack(words: Sequence[int], n: int, width: int) -> list[int]:
    """The inverse of _unpack."""
    bias, size = _bias(n, width), n * width // 8
    raw = _write_words(words, width)
    return [
        (int.from_bytes(raw[k : k + size], "little") ^ bias) - bias
        for k in range(0, len(raw), size)
    ]


#: Bits of one array("q") item, the word of every packed product that fits.
_WORD = 64


def _certify(a: IntMatrix, rows: Sequence[int], adj: IntMatrix, d: int) -> IntMatrix:
    """N = A * adj, read off one packed product (Kronecker substitution).

    Raises InvariantError unless N[rows] == d * I, which with N = A * adj
    exact shows B * adj == d * I for B = A[rows].

    Every entry of A * adj is at most h = n * max |A| * max |adj| in
    absolute value, and words have w bits with 2^(w-1) > h: 64 when that
    is enough, else whole bytes.  Each row of adj packs to the integer
    with its entries as signed base-2^w digits, so row i of A * adj is the
    one integer sum_j A[i][j] * packed[j]: m * n products of a packed
    integer in place of m * n^2 multiply-adds.  Adding 2^(w-1) to every
    digit (no digit carries into the next) and flipping the top bit of
    every word turns each digit into a two's-complement word, and
    _read_words reads the words of all rows off their bytes.  Those words
    must write back, each within w bits, to the same bytes, so N == A * adj
    entry by entry whatever the reader returned (InvariantError otherwise).
    """
    n = a.cols
    reach = n * max(map(abs, chain.from_iterable(a.entries))) * max(
        map(abs, chain.from_iterable(adj.entries))
    )
    width = max(_WORD, -(-(2 * reach).bit_length() // 8) * 8)
    bias = ((1 << (width * n)) - 1) // ((1 << width) - 1) << (width - 1)
    size = n * width // 8
    raw = _write_words(chain.from_iterable(adj.entries), width)
    packed = [
        (int.from_bytes(raw[k : k + size], "little") ^ bias) - bias
        for k in range(0, len(raw), size)
    ]
    data = b"".join(
        [
            ((sum(map(mul, row, packed)) + bias) ^ bias).to_bytes(size, "little")
            for row in a.entries
        ]
    )
    words = _read_words(data, width)
    try:
        exact = _write_words(words, width) == data
    except OverflowError:
        exact = False
    if not exact:
        raise InvariantError("A * adj(B) != N")
    numerators = [tuple(words[k : k + n]) for k in range(0, len(words), n)]
    zero = (0,) * n
    for k, i in enumerate(rows):
        if numerators[i] != zero[:k] + (d,) + zero[k + 1 :]:
            raise InvariantError("B * adj(B) != det(B) * I")
    return IntMatrix._trusted(tuple(numerators))


def _read_words(data: bytes, width: int) -> list[int]:
    """The words of width bits in data, lowest first and little-endian,
    each read as a two's-complement integer."""
    if width == _WORD:
        words = array("q", data)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()
    size = width // 8
    return [
        int.from_bytes(data[k : k + size], "little", signed=True)
        for k in range(0, len(data), size)
    ]


def _write_words(words: Iterable[int], width: int) -> bytes:
    """The inverse of _read_words; OverflowError when a word does not fit
    in width bits."""
    if width == _WORD:
        out = array("q", words)
        if sys.byteorder == "big":
            out.byteswap()
        return out.tobytes()
    size = width // 8
    return b"".join([x.to_bytes(size, "little", signed=True) for x in words])


_Scan = Iterator[tuple[tuple[int, ...], tuple[int, ...]]]


def _images(columns: Sequence[Sequence[int]], ranges: Sequence[Sequence[int]], m: int) -> _Scan:
    """(x, sum of x[j] * columns[j]) for x over the product of ranges, in
    lexicographic order, lazily; the image of the empty product is zero."""
    multiples = [[(v, tuple(v * c for c in col)) for v in r] for col, r in zip(columns, ranges)]
    zero = (0,) * m
    for combo in product(*multiples):
        yield tuple(v for v, _ in combo), tuple(map(sum, zip(zero, *(y for _, y in combo))))


def _box_halves(
    a: IntMatrix, ranges: Sequence[Sequence[int]]
) -> tuple[_Scan, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The box ranges[0] x ... x ranges[n-1] split into two halves, every
    point with its image under A (Horowitz and Sahni 1974).

    Returns (heads, tails).  tails is a list of (x, A x) over the trailing
    coordinates, the longest suffix with at most sqrt(box size) points
    (the last floor(n/2) for equal ranges), with A x in those coordinates
    alone; heads yields the same over the leading coordinates, lazily.
    Both are in lexicographic order, and every box point is head + tail
    with image head_image + tail_image.
    """
    n = a.cols
    if len(ranges) != n:
        raise DimensionError(f"box needs {n} ranges, got {len(ranges)}")
    columns = tuple(zip(*a.entries))
    size = math.prod(len(r) for r in ranges)
    split, count = n, 1
    while split > 0 and (count * len(ranges[split - 1])) ** 2 <= size:
        split -= 1
        count *= len(ranges[split])
    tails = list(_images(columns[split:], ranges[split:], a.rows))
    return _images(columns[:split], ranges[:split], a.rows), tails


def box_images(a: IntMatrix, ranges: Sequence[Sequence[int]]) -> _Scan:
    """Every point x of the box ranges[0] x ... x ranges[n-1] with its
    image A x, in lexicographic order, lazily.

    The images of the trailing half of the coordinates are computed once
    and cached (at most sqrt(box size) of them), so each point costs one
    vector addition instead of a full product A x.  The cache is built on
    this call: check any budget before making it.
    """
    heads, tails = _box_halves(a, ranges)
    return (
        (head + tail, tuple(map(add, head_image, tail_image)))
        for head, head_image in heads
        for tail, tail_image in tails
    )


def rank(a: IntMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_eliminate([list(row) for row in a.entries], range(a.cols), reduce=False)[0])


def find_invertible_rows(a: IntMatrix) -> tuple[int, ...]:
    """Deterministic greedy scan for an invertible row set.

    Rows are scanned in ascending index order; a row is kept iff it strictly
    increases the rank of the rows kept so far.  The result has exactly
    cols(a) indices with det(a[rows]) != 0.  Those rows are the pivot
    columns of the forward elimination of the transpose.
    """
    pivots, _ = _eliminate([list(col) for col in zip(*a.entries)], range(a.rows), reduce=False)
    if len(pivots) < a.cols:
        raise RankError(f"matrix has rank {len(pivots)} < {a.cols} columns")
    return tuple(pivots)


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: returns (H, U) with A @ U == H.

    U is unimodular.  H has a lower-triangular profile: pivots (topmost
    nonzero entry per column) sit in strictly increasing rows, are positive,
    entries to the left of a pivot in its row are reduced into [0, pivot),
    and zero columns trail.  Plain extended-gcd column operations; no
    asymptotic cleverness.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def combine(c: int, j: int, x: int, y: int, p: int, q: int) -> None:
        # (col_c, col_j) <- (x*col_c + y*col_j, p*col_j - q*col_c); det = xp + yq = 1
        for mat in (h, u):
            for row in mat:
                vc, vj = row[c], row[j]
                row[c] = x * vc + y * vj
                row[j] = p * vj - q * vc

    col = 0
    for r in range(m):
        if col >= n:
            break
        for j in range(col + 1, n):
            if h[r][j] == 0:
                continue
            g, x, y = _ext_gcd(h[r][col], h[r][j])
            combine(col, j, x, y, h[r][col] // g, h[r][j] // g)
        if h[r][col] == 0:
            continue
        if h[r][col] < 0:
            for mat in (h, u):
                for row in mat:
                    row[col] = -row[col]
        pivot = h[r][col]
        for j in range(col):
            q = h[r][j] // pivot
            if q != 0:
                for mat in (h, u):
                    for row in mat:
                        row[j] -= q * row[col]
        col += 1
    return IntMatrix._trusted(tuple(map(tuple, h))), IntMatrix._trusted(tuple(map(tuple, u)))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Returns (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _check_budget(count: int, budget: int, what: str) -> None:
    """The one budget gate: refuse a scan of count items before it starts.
    A negative budget is an invalid value, not one that every scan exceeds."""
    if budget < 0:
        raise DomainError("budget must be >= 0")
    if count > budget:
        raise BudgetExceededError(f"{what} of size {count} exceeds budget {budget}")


def _minors(
    vectors: Sequence[Sequence[int]], k: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(S, det vectors[S]) for every k-subset S of range(len(vectors)), in
    lexicographic order, lazily: one forward elimination per subset of the
    k-vectors it selects, and 0 for a singular subset."""
    for subset in combinations(range(len(vectors)), k):
        pivots, value = _eliminate([list(vectors[i]) for i in subset], range(k), reduce=False)
        yield subset, value if len(pivots) == k else 0


def max_abs_full_rank_subdet(
    a: IntMatrix, budget: int = DEFAULT_MINOR_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Largest |det| over all full-rank (cols x cols) row submatrices.

    Exhaustive scan in lexicographic row-set order; returns the maximum and
    the lexicographically first witness set.  The matrix must have full
    column rank.
    """
    m, n = a.rows, a.cols
    if rank(a) < n:
        raise RankError("full column rank required")
    _check_budget(math.comb(m, n), budget, "full-rank subdeterminant scan")
    # max keeps the first of equal keys, so the witness is the first in order
    rows, value = max(_minors(a.entries, n), key=lambda minor: abs(minor[1]))
    return abs(value), rows


def is_totally_delta_modular(
    a: IntMatrix, delta: int, budget: int = DEFAULT_MINOR_BUDGET
) -> bool:
    """True iff every square minor of every size has |det| <= delta."""
    m, n = a.rows, a.cols
    total = sum(math.comb(m, k) * math.comb(n, k) for k in range(1, min(m, n) + 1))
    _check_budget(total, budget, "total minor scan")
    for k in range(1, min(m, n) + 1):
        for rows in combinations(a.entries, k):
            if any(abs(value) > delta for _, value in _minors(tuple(zip(*rows)), k)):
                return False
    return True


def gcd_full_rank_subdets(a: IntMatrix, budget: int = DEFAULT_MINOR_BUDGET) -> int:
    """gcd of |det| over all maximal full-rank column submatrices.

    The input must have full row rank; zero minors are ignored.
    """
    m, n = a.rows, a.cols
    if m > n or rank(a) < m:
        raise RankError("full row rank required")
    _check_budget(math.comb(n, m), budget, "gcd subdeterminant scan")
    g = 0
    for _, value in _minors(a.transpose().entries, m):
        g = math.gcd(g, value)
        if g == 1:
            return 1
    return g


def subdet_ratio_check(
    a: IntMatrix,
    base_rows: Sequence[int],
    i_rows: Sequence[int],
    j_cols: Sequence[int],
) -> bool:
    """Exact test of the determinant-ratio identity used for solver progress.

    With B = a[base_rows] invertible and |I| = |J|, compares the |det B'|
    that Tableau.swapped_det reads off the tableau of B, for B' = B with
    row i_rows[t] of A at position j_cols[t], against |det B'| computed
    from scratch.
    """
    n = a.cols
    if len(base_rows) != n:
        raise DimensionError("base row set must have one row per column")
    if len(i_rows) != len(j_cols):
        raise DimensionError("row and column selections must have equal size")
    if len(set(j_cols)) != len(j_cols) or any(not 0 <= j < n for j in j_cols):
        raise DimensionError("column selection out of range or repeated")
    if len(set(i_rows)) != len(i_rows) or any(not 0 <= i < a.rows for i in i_rows):
        raise DimensionError("row selection out of range or repeated")

    tab = tableau(a, base_rows)
    if not i_rows:
        return True  # degenerate: B' = B
    swaps = dict(zip(j_cols, i_rows))
    rows = [swaps.get(p, r) for p, r in enumerate(base_rows)]
    return tab.swapped_det(swaps) == abs(det(a.submatrix_rows(rows)))
