"""Exact integer and rational linear algebra on dense matrices.

Everything here works with Python's arbitrary-precision integers; there is
no floating point anywhere.  All exact elimination goes through one
fraction-free pivot (Bareiss 1968, in the pivot form of Edmonds 1967):
every intermediate entry is a minor of the input, so values stay
polynomially bounded.  Determinants (one ``_det`` for every square minor)
and rank use forward elimination.  ``Tableau(rows, adj, det, numerators)``
holds the basis rows, adj(B), det(B) and N = A*adj(B); it is the only
route to an inverse, B^-1 = adj / det, and its rows are the greedy
invertible row set.  Only the n x n transform +-adj(B)^T is eliminated,
each row of A entering it as it is scanned.  The transform is
column-packed (Kronecker substitution): each column is one big integer
whose signed base-2^w digits are its entries, so a scanned row's column and
each pivot's update are a few big-integer products per column.  The word
width w is proved, not guessed: a tracked bound covers every digit, since
a digit out of range carries into all the digits above it, and when the
bound reaches 2^(w-1) the columns are read exactly and repacked wider if
they need it.  N is read off the packed product A*adj(B) that certifies
the tableau: the words read must write back to the product's bytes, so N
is A*adj(B) exactly, and N == det(B)*I at the basis rows, which proves
B*adj(B) == det(B)*I.  The tableau keeps the packed rows of adj(B) and N,
and ``Tableau.swapped`` builds the tableau of a basis with k rows replaced
from them by one exact block pivot (Sylvester's identity): k + 1 products
and one division per packed row, with no new elimination or product.  The
divisions are checked exact digit by digit, which carries the certificate
over to the new tableau.
The other eliminations, the polyhedral verifiers among them, use the list
pivot ``_pivot``.  Lattice bases are reduced by integral LLL, ``_lll``,
whose Gram determinants and scaled Gram-Schmidt coefficients stay integers.
Every maximal-minor scan reads its minors off one iterator, ``_minors``
(each k-subset in lexicographic order, one forward elimination each), and
every enumeration has one budget gate, ``_check_budget``, which refuses it
up front rather than truncate.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import itemgetter, mul, neg
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


def _eliminate(work: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free elimination of work in place, trying its columns in
    order and pivoting on the first nonzero entry at or below the next
    pivot row; a column without one is skipped.

    Returns the pivot columns (pivot k sits in row k) and the signed
    determinant of the pivot rows and columns, which is det(work) when work
    is square with full rank.
    """
    pivots: list[int] = []
    sign = prev = 1
    for c in range(len(work[0])):
        r = len(pivots)
        if r == len(work):
            break
        i = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if i is None:
            continue
        if i != r:
            work[r], work[i] = work[i], work[r]
            sign = -sign
        _pivot(work, r, c, prev, r + 1)
        prev = work[r][c]
        pivots.append(c)
    return pivots, sign * prev


def _det(work: list[list[int]]) -> int:
    """det(work) for square work, eliminated in place; 0 if a pivot is missing."""
    pivots, value = _eliminate(work)
    return value if len(pivots) == len(work) else 0


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free forward elimination."""
    if m.rows != m.cols:
        raise DimensionError(f"square matrix required, got {m.shape}")
    return _det([list(row) for row in m.entries])


@dataclass(frozen=True)
class Tableau:
    """A seen through the basis B = A[rows]: B^-1 = adj(B) / det(B) and
    A * B^-1 = N / det(B) with N = A * adj(B).

    det keeps its sign and is never reduced against adj or N: the solver
    reads residues of their entries modulo |det(B)| itself.

    packed holds the rows of X = [adj; N] as packed integers (each row's
    entries the signed base-2^w digits of one integer), w and a proved
    bound on every |digit|.  Only tableau and swapped set it, so a tableau
    built or replaced by hand has none and swapped packs its entries.
    """

    rows: tuple[int, ...]
    adj: IntMatrix
    det: int
    numerators: IntMatrix
    packed: tuple[list[int], int, int] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def _minor(self, swaps: dict[int, int]) -> tuple[tuple[int, ...], ...]:
        """N[I, J] for the rows I of A (the values of swaps) and the
        positions J (its keys); DimensionError, before any entry is read,
        unless every position lies in range(n) and every row in range(m)."""
        n, m = len(self.rows), self.numerators.rows
        if any(not 0 <= j < n for j in swaps) or any(not 0 <= i < m for i in swaps.values()):
            raise DimensionError(f"swaps need positions in range({n}) and rows in range({m})")
        numerators = self.numerators.entries
        return tuple(tuple(numerators[i][j] for j in swaps) for i in swaps.values())

    def swapped_det(self, swaps: dict[int, int]) -> int:
        """|det B'| for B' = B with row swaps[j] of A at position j, by the
        determinant-ratio identity.

        B' = M * B, where M is the identity except that its rows J (the keys)
        are the rows I (the values) of A * B^-1 = N / det(B).  So det B' =
        det(B) * det M[J, J] and |det B'| = |det N[I, J]| / |det B|^(k-1)
        for k = |J|.  InvariantError when that division is inexact; no swap
        gives |det B|.
        """
        if not swaps:
            return abs(self.det)
        minor = list(self._minor(swaps))
        quotient, remainder = divmod(abs(_det(minor)), abs(self.det) ** (len(swaps) - 1))
        if remainder:
            raise InvariantError("determinant ratio is not an integer")
        return quotient

    def swapped(self, swaps: dict[int, int]) -> "Tableau":
        """The tableau of B' = B with row swaps[j] of A at position j, by one
        exact block pivot on X = [adj(B); N] (Bareiss 1968).

        With C = N[I, J], k = |J| and d = det(B), B' = M * B as in
        swapped_det, so [adj(B'); A * adj(B')] = (det(B') / d) * X * M^-1:
        columns J become X_J * adj(C) / d^(k-1), every other column l
        becomes (det(C) * X_l - X_J * adj(C) * N[I, l]) / d^k, and det(B') =
        det(C) / d^(k-1).  adj(C) and det(C) come from C's own tableau, so
        SingularMatrixError is raised when det(C) == 0.

        Both are one step on the packed rows: with E_t = d * 2^(w*J[t]) -
        (packed row I[t] of N) and F = adj(C) * E, row x of X becomes
        (det(C) * x + x_J * F) / d^k, k + 1 products and one division per
        row.  Every digit of the numerator is at most r = (|det(C)| + 2 *
        sum_s max|X[:, J[s]]| * ||adj(C)[s]||_1) * bound, since E's digits are
        at most 2 * bound; when r reaches 2^(w-2) the entries are read for an
        exact bound, and packed wider if r still reaches it.  The division
        must leave no remainder and every quotient digit q must satisfy
        |q| < 2^t for 2^(t-1) <= r // |d^k|, one mask test per row: then
        |d^k * q| < 2^(w-1), so d^k * q is the numerator's digit and X' is
        exactly the block pivot of the certified X.  That proves N' =
        A * adj(B') with no new product, and r // |d^k| bounds X'.
        N'[rows'] == det(B') * I is checked by _finish, as in _certify.  No
        swap gives this tableau.
        """
        if not swaps:
            return self
        inner = tableau(IntMatrix._trusted(self._minor(swaps)), range(len(swaps)))
        rows = tuple(swaps.get(p, r) for p, r in enumerate(self.rows))
        cols, picks, numerators = list(swaps), list(swaps.values()), self.numerators.entries
        n, d, det_c, adj_c = len(rows), self.det, inner.det, inner.adj.entries
        entries = self.adj.entries + numerators
        x_cols = [[x[j] for x in entries] for j in cols]
        spread = abs(det_c) + 2 * sum(
            max(map(abs, c)) * sum(map(abs, a)) for c, a in zip(x_cols, adj_c)
        )
        packed, width, bound = self.packed or (None, 0, 0)
        if packed is None or (spread * bound) >> (width - 2):
            bound = max(map(abs, chain.from_iterable(entries)))
            if packed is None or (spread * bound) >> (width - 2):
                width = -(-((spread * bound).bit_length() + 2) // _WORD) * _WORD
                packed = _pack(list(chain.from_iterable(entries)), n, width)
        steps = [(d << (width * j)) - packed[n + i] for j, i in zip(cols, picks)]
        f = [sum(map(mul, a, steps)) for a in adj_c]
        scale = d ** len(cols)
        bound = spread * bound // abs(scale)
        ones = _bias(n, width) >> (width - 1)
        lift = ones << bound.bit_length()  # 2^t in each digit
        drop = ~(2 * lift - ones)  # every bit but the low t + 1 of each digit
        out = []
        for x, x_j in zip(packed, zip(*x_cols)):
            q, remainder = divmod(det_c * x + sum(map(mul, x_j, f)), scale)
            if remainder or (q + lift) & drop:
                raise InvariantError("block pivot is not exact")
            out.append(q)
        words = _unpack(out, n, width)
        adj = IntMatrix._trusted(tuple(tuple(words[t : t + n]) for t in range(0, n * n, n)))
        # det(C) / d^(k-1) is N'[I[0]][J[0]], a digit the division proved exact
        new_det = det_c // d ** (len(cols) - 1)
        return _finish(rows, adj, new_det, words, n * n, (out, width, bound))


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
    the greedy invertible row set (find_invertible_rows reads it off here)
    and RankError("full column rank required") is raised below full column
    rank.  Otherwise step k pivots on row rows[k], so B = a[rows] keeps that
    row order, and SingularMatrixError is raised when it is singular.  At
    the end row
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
            raise RankError("full column rank required")
        raise SingularMatrixError("selected basis rows are singular")
    words = _unpack(columns, n, width)
    if sign < 0:
        words = list(map(neg, words))
    pick = itemgetter(*slots) if n > 1 else tuple
    adj = IntMatrix._trusted(tuple(pick(words[j : j + n]) for j in range(0, n * n, n)))
    return _certify(a, pivots, adj, sign * prev)


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


def _pack(words: Iterable[int], n: int, width: int) -> list[int]:
    """The inverse of _unpack."""
    bias, size = _bias(n, width), n * width // 8
    raw = _write_words(words, width)
    return [
        (int.from_bytes(raw[k : k + size], "little") ^ bias) - bias
        for k in range(0, len(raw), size)
    ]


#: Bits of one array("q") item, the word of every packed product that fits.
_WORD = 64


def _certify(a: IntMatrix, rows: Sequence[int], adj: IntMatrix, d: int) -> Tableau:
    """The tableau with N = A * adj, read off one packed product (Kronecker
    substitution), which carries the packed rows of adj and of A * adj.

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
    bias, size = _bias(n, width), n * width // 8
    packed = _pack(chain.from_iterable(adj.entries), n, width)
    products = [sum(map(mul, row, packed)) for row in a.entries]
    data = b"".join([((x + bias) ^ bias).to_bytes(size, "little") for x in products])
    words = _read_words(data, width)
    try:
        exact = _write_words(words, width) == data
    except OverflowError:
        exact = False
    if not exact:
        raise InvariantError("A * adj(B) != N")
    return _finish(rows, adj, d, words, 0, (packed + products, width, reach))


def _finish(
    rows: Sequence[int], adj: IntMatrix, d: int, words: list[int], first: int, packed: tuple
) -> Tableau:
    """The tableau of B = A[rows] with adj(B) = adj, det(B) = d and N the
    words from words[first] on in rows of n, carrying packed, the packed
    rows of [adj; N] with their width and bound; every certified tableau
    ends here.  InvariantError unless N[rows] == d * I."""
    n = len(rows)
    numerators = tuple(tuple(words[k : k + n]) for k in range(first, len(words), n))
    zero = (0,) * n
    for k, i in enumerate(rows):
        if numerators[i] != zero[:k] + (d,) + zero[k + 1 :]:
            raise InvariantError("B * adj(B) != det(B) * I")
    tab = Tableau(tuple(rows), adj, d, IntMatrix._trusted(numerators))
    object.__setattr__(tab, "packed", packed)
    return tab


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


def rank(a: IntMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_eliminate([list(row) for row in a.entries])[0])


def find_invertible_rows(a: IntMatrix) -> tuple[int, ...]:
    """Deterministic greedy scan for an invertible row set.

    Rows are scanned in ascending index order; a row is kept iff it strictly
    increases the rank of the rows kept so far.  The result has exactly
    cols(a) indices with det(a[rows]) != 0: the basis rows of the greedy
    tableau.
    """
    return tableau(a).rows


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: returns (H, U) with A @ U == H.

    U is unimodular.  H has a lower-triangular profile: pivots (topmost
    nonzero entry per column) sit in strictly increasing rows, are positive,
    entries to the left of a pivot in its row are reduced into [0, pivot),
    and zero columns trail.  Plain extended-gcd column operations; no
    asymptotic cleverness.
    """
    m, n = a.rows, a.cols
    # [A; I]: each column operation runs once on both, H above and U below
    work = [list(row) for row in a.entries] + [[int(i == j) for j in range(n)] for i in range(n)]
    col = 0
    for h in work[:m]:
        if col >= n:
            break
        for j in range(col + 1, n):
            if h[j] == 0:
                continue
            g, x, y = _ext_gcd(h[col], h[j])
            p, q = h[col] // g, h[j] // g
            # (col, j) <- (x*col + y*j, p*j - q*col); det = xp + yq = 1
            for row in work:
                vc, vj = row[col], row[j]
                row[col] = x * vc + y * vj
                row[j] = p * vj - q * vc
        if h[col] == 0:
            continue
        if h[col] < 0:
            for row in work:
                row[col] = -row[col]
        pivot = h[col]
        for j in range(col):
            q = h[j] // pivot
            if q != 0:
                for row in work:
                    row[j] -= q * row[col]
        col += 1
    h, u = tuple(map(tuple, work[:m])), tuple(map(tuple, work[m:]))
    return IntMatrix._trusted(h), IntMatrix._trusted(u)


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


def _lll(columns: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """LLL reduction (delta = 3/4) of independent integer columns, all in
    integers (Cohen 1993, "A Course in Computational Algebraic Number
    Theory", Alg. 2.6.7, after Lenstra, Lenstra and Lovasz 1982).

    Returns the reduced columns and the columns of a unimodular V with
    columns @ V == reduced.  d[i] is the Gram determinant of the first i
    columns, and lam[k][j] = d[j + 1] mu_kj is an integer; every division
    below is exact.  Dependent columns (a zero one among them) come back
    as given, with V = I.
    """
    n = len(columns)

    def as_given() -> tuple[list[list[int]], list[list[int]]]:
        return [list(c) for c in columns], [[int(i == j) for i in range(n)] for j in range(n)]

    b, v = as_given()
    d = [1, sum(x * x for x in b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]
    if d[1] == 0:
        return as_given()

    def reduce(k: int, j: int) -> None:
        # b_k -= q b_j with q the integer nearest mu_kj
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            v[k] = [x - q * y for x, y in zip(v[k], v[j])]
            lam[k][j] -= q * d[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    k, top = 1, 0
    while k < n:
        if k > top:
            top = k
            for j in range(k + 1):
                u = sum(map(mul, b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    return as_given()
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            # swap columns k - 1 and k and update the Gram data in place
            b[k - 1], b[k], v[k - 1], v[k] = b[k], b[k - 1], v[k], v[k - 1]
            lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
            pair = lam[k][k - 1]
            between = (d[k - 1] * d[k + 1] + pair * pair) // d[k]
            for i in range(k + 1, top + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - pair * t) // d[k]
                lam[i][k - 1] = (between * t + pair * lam[i][k]) // d[k + 1]
            d[k] = between
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return b, v


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
        yield subset, _det([list(vectors[i]) for i in subset])


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
    from scratch, and the tableau that Tableau.swapped builds for B'
    against a fresh one; both raising SingularMatrixError agree.
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
    swaps = dict(zip(j_cols, i_rows))
    rows = [swaps.get(p, r) for p, r in enumerate(base_rows)]
    built = []
    for build in (lambda: tab.swapped(swaps), lambda: tableau(a, rows)):
        try:
            built.append(build())
        except SingularMatrixError:
            built.append(None)
    return built[0] == built[1] and tab.swapped_det(swaps) == abs(det(a.submatrix_rows(rows)))
