"""Complete enumeration procedures for the infinity-norm shortest vector.

A box enumeration with a provably sufficient radius (``brute_force_svp``,
the reference behind ``svp oracle``), a layered scan of the images B z on
an invertible row set B (``layered_svp``, which the solver runs below its
dimension threshold) and its first layer, the exact decision of "no
lattice vector of norm below 2".  Every scan is complete and visits points
in a fixed order, so its witness is deterministic.  All run on one split
scan, ``_box_halves``: the images of the trailing half of the coordinates
are computed once, and each half-image is one packed integer, so a box
point costs one integer addition and one exact word-parallel range test
of every entry (``_kept``, shared by both norm scans); only the points
that pass are read.  A layer joins the two halves on the residue of
adj(B) v modulo det(B), so only the integral preimages are tested.
Neither split changes which point is found first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product
from operator import neg
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, DimensionError, DomainError, InvariantError, RankError
from .linalg import (
    _WORD,
    IntMatrix,
    Tableau,
    _bias,
    _check_budget,
    _pack,
    _read_words,
    _unpack,
    rank,
    tableau,
)

DEFAULT_BOX_BUDGET = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    """Exact minimizer found by enumeration; norm may be any positive value."""

    z: tuple[int, ...]
    y: tuple[int, ...]
    norm: int


def _radius(a: IntMatrix, t: Tableau) -> int:
    """Box radius K certain to contain a global minimizer of ||A z||_inf,
    from the tableau t of any invertible row set B of A.

    The best column gives an upper bound U on the optimum; any z at least
    that good satisfies B z in [-U, U]^n, so
    |z_i| <= (1-norm of adjugate row i) * U / |det B|.
    """
    u = min(max(abs(x) for x in a.column(j)) for j in range(a.cols))
    d = abs(t.det)
    k = max(sum(abs(x) for x in row) * u // d for row in t.adj.entries)
    return max(k, 1)


def enum_bound(a: IntMatrix) -> int:
    """Box radius K certain to contain a global minimizer of ||A z||_inf,
    taken on the greedy invertible row set of A."""
    return _radius(a, tableau(a))


def brute_force_svp(
    a: IntMatrix, k: int, budget: int = DEFAULT_BOX_BUDGET
) -> OracleResult:
    """Exact minimum of ||A z||_inf over nonzero z in [-k, k]^n.

    Scans the box in lexicographic order and returns the first minimizer,
    which is therefore the lexicographically smallest one.  With
    k >= enum_bound(a) the result is the global optimum.  Stops early only
    when norm 1 appears, since no nonzero lattice vector can beat it.
    """
    if k < 1:
        raise DomainError("box radius must be >= 1")
    if rank(a) < a.cols:
        raise RankError("full column rank required")
    return _box_scan(a, k, budget)


def _box_scan(a: IntMatrix, k: int, budget: int) -> OracleResult:
    """brute_force_svp on an A known to have full column rank.

    A unit vector lies in the box, so the optimum is below best = the
    least column norm + 1.  Each head keeps, by _kept, the tails whose
    point has norm at most best - 1, and only those are read: the first
    point below best becomes the new best, so the first minimizer in
    lexicographic order is found as by a full scan.
    """
    n, m = a.cols, a.rows
    _check_budget((2 * k + 1) ** n, budget, "box enumeration")
    best = min(max(map(abs, col)) for col in zip(*a.entries)) + 1
    width, heads, tails = _box_halves(a, [range(-k, k + 1)] * n, best)
    for head, image in heads:
        for tail, tail_image in _kept(image, tails, _window(m, 0, width, best - 1)):
            y = tuple(_unpack([image + tail_image], m, width))
            norm = max(map(abs, y))
            # full column rank: only z = 0 has norm 0
            if norm and norm < best:
                best, found = norm, (head + tail, y)
                if norm == 1:
                    return OracleResult(*found, 1)
    return OracleResult(*found, best)


_Half = Iterator[tuple[tuple[int, ...], int]]


def _images(columns: Sequence[int], ranges: Sequence[Sequence[int]]) -> _Half:
    """(x, sum of x[j] * columns[j]) for x over the product of ranges, in
    lexicographic order, lazily; the image of the empty product is 0."""
    multiples = [[v * c for v in r] for c, r in zip(columns, ranges)]
    return zip(product(*ranges), map(sum, product(*multiples)))


def _box_halves(
    a: IntMatrix, ranges: Sequence[Sequence[int]], limit: int
) -> tuple[int, _Half, list[tuple[tuple[int, ...], int]]]:
    """The box ranges[0] x ... x ranges[n-1] split into two halves, every
    point with its packed image under A (Horowitz and Sahni 1974).

    Returns (w, heads, tails).  The columns of A are packed by _pack at
    width w, so an image A x is the one integer sum_i (A x)_i * 2^(w*i)
    whose signed base-2^w digits are its entries, and the image of
    head + tail is head_image + tail_image.  Every digit of such a sum is
    at most reach = sum_j max(1, max|ranges[j]|) * max|A[:, j]| (the 1
    keeps the entries themselves in range), and w is the least multiple
    of 64 with reach + limit < 2^(w-1): a caller may add 2^(w-1) - limit - 1
    or 2^(w-1) + limit to every digit and read each word on its own, with
    no carry or borrow between words.
    tails is a list of (x, image) over the trailing coordinates, the
    longest suffix with at most sqrt(box size) points (the last floor(n/2)
    for equal ranges), with the image of those coordinates alone; heads
    yields the same over the leading coordinates, lazily.  Both are in
    lexicographic order.
    """
    n = a.cols
    if len(ranges) != n:
        raise DimensionError(f"box needs {n} ranges, got {len(ranges)}")
    columns = tuple(zip(*a.entries))
    reach = sum(max([1, *map(abs, r)]) * max(map(abs, c)) for r, c in zip(ranges, columns))
    width = -(-((reach + limit).bit_length() + 1) // _WORD) * _WORD
    packed = _pack(chain.from_iterable(columns), a.rows, width)
    size = math.prod(len(r) for r in ranges)
    split, count = n, 1
    while split > 0 and (count * len(ranges[split - 1])) ** 2 <= size:
        split -= 1
        count *= len(ranges[split])
    tails = list(_images(packed[split:], ranges[split:]))
    return width, _images(packed[:split], ranges[:split]), tails


def _window(rows: int, skip: int, width: int, limit: int) -> tuple[int, int, int]:
    """(lo, hi, top), the constants of _kept's test of digits skip ..
    rows - 1 of a packed image at width w against limit: lo and hi hold
    2^(w-1) in each of the first skip digits and 2^(w-1) - limit - 1 and
    2^(w-1) + limit in each tested one, top the top bit of each tested
    word."""
    bias = _bias(rows, width)
    top = bias - _bias(skip, width)
    ones = top >> (width - 1)
    return bias - (limit + 1) * ones, bias + limit * ones, top


def _kept(
    image: int, tails: Iterable[tuple[tuple[int, ...], int]], window: tuple[int, int, int]
) -> list[tuple[tuple[int, ...], int]]:
    """The (x, tail_image) of tails, in order, for which every tested digit
    y of image + tail_image lies in [-limit, limit], window being
    _window(rows, skip, width, limit) on images from _box_halves(...,
    limit).

    One exact range test per pair, on whole words (Lamport 1975): every
    digit is at most reach and reach + limit < 2^(w-1), so each word of
    image + tail_image + lo holds y + 2^(w-1) - limit - 1 in [0, 2^w) (a
    digit below skip holds y + 2^(w-1)) and nothing carries from one word
    into the next; its top bit is clear iff y <= limit.  Likewise each
    word of image + tail_image + hi holds y + 2^(w-1) + limit, whose top
    bit is set iff y >= -limit.
    """
    lo, hi, top = window
    low, high = image + lo, image + hi
    return [(x, t) for x, t in tails if not (low + t) & top and (high + t) & top == top]


def _layer(t: Tableau, r: int) -> Iterator[tuple[int, ...]]:
    """Every nonzero z with B z in [-r, r]^n and ||A z||_inf <= r, lazily,
    in lexicographic order of v = B z, from the tableau t of a row set B
    of A.

    v splits into a head and a tail half over the stacked matrix
    [adj(B); N], N = A adj(B), each half's image one packed integer whose
    first n digits are adj(B) v and the rest N v.  The tails are grouped
    by the residue of -adj(B) v_tail modulo det(B), read once per tail,
    and each head meets the group of its own residue of adj(B) v_head,
    read once per head: the tails that make z = adj(B) v / det(B)
    integral.  It keeps v when every digit of N v lies in
    [-r |det(B)|, r |det(B)|], which is ||A z||_inf <= r.  That is _kept's
    range test on the N digits, exact because _box_halves sizes the words
    for limit r |det(B)|; the adj digits carry the bias 2^(w-1), so no
    borrow crosses into the N digits.  Only the pairs kept have adj(B) v
    read.
    """
    n = len(t.adj.entries)
    d = t.det
    modulus = abs(d)
    stacked = IntMatrix._trusted(t.adj.entries + t.numerators.entries)
    width, heads, tails = _box_halves(stacked, [range(-r, r + 1)] * n, r * modulus)
    window = _window(stacked.rows, n, width, r * modulus)
    bias, mask, size = _bias(n, width), (1 << (width * n)) - 1, n * width // 8

    def adj(image: int) -> list[int]:
        """The first n digits of a packed image: adj(B) v."""
        return _read_words((((image + bias) & mask) ^ bias).to_bytes(size, "little"), width)

    residue = modulus.__rmod__
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for tail in tails:
        groups.setdefault(tuple(map(residue, map(neg, adj(tail[1])))), []).append(tail)
    for _, image in heads:
        key = tuple(map(residue, adj(image)))
        for _, tail_image in _kept(image, groups.get(key, ()), window):
            numerator = adj(image + tail_image)
            if any(numerator):  # else v = 0
                yield tuple(x // d for x in numerator)


def layered_svp(a: IntMatrix, t: Tableau, budget: int = DEFAULT_BOX_BUDGET) -> OracleResult:
    """Exact minimum of ||A z||_inf over nonzero integer z, by layers r = 1,
    2, ... of B z in [-r, r]^n on the tableau t of an invertible row set B.

    The first layer that keeps a z holds every minimizer, so its
    lexicographically least z is the one ``brute_force_svp`` finds first.
    Column j of N = A adj(B) is the lattice vector A adj(B) e_j, and by
    Cramer's rule its entries are maximal minors of A, so the layers end
    by R = min(best column norm of A, min_j max_k |N[k][j]|) <= delta
    whatever the entries.  Refused up front when sum_{r <= R} (2r + 1)^n
    exceeds the budget (the size reported is the first partial sum over).
    """
    n = a.cols
    bound = min(max(map(abs, col)) for m in (a, t.numerators) for col in zip(*m.entries))
    points = 0
    for r in range(1, bound + 1):
        points += (2 * r + 1) ** n
        if points > budget:
            break
    _check_budget(points, budget, "layered scan")
    for r in range(1, bound + 1):
        z = min(_layer(t, r), default=None)
        if z is not None:
            y = a.matvec(z)
            norm = max(map(abs, y))
            if norm != r:
                raise InvariantError(f"layer {r} minimizer has norm {norm}")
            return OracleResult(z, y, norm)
    raise InvariantError(f"no lattice vector of norm <= {bound}")


def scan_svp(a: IntMatrix, t: Tableau, budget: int = DEFAULT_BOX_BUDGET) -> OracleResult:
    """``layered_svp``, or ``brute_force_svp`` at radius _radius(a, t) when
    its box has fewer points or the layers exceed the budget (large norms
    in few dimensions, such as one column of large entries).  Both return
    the same vector; the box's gate refuses when neither fits."""
    k = _radius(a, t)
    try:
        return layered_svp(a, t, min((2 * k + 1) ** a.cols, budget))
    except BudgetExceededError:
        return _box_scan(a, k, budget)


def shortest_is_at_least_2(
    a: IntMatrix, budget: int = DEFAULT_BOX_BUDGET
) -> tuple[bool, tuple[int, ...] | None]:
    """Exact decision: does every nonzero lattice vector have norm >= 2?

    Complete by construction: any z with ||A z||_inf <= 1 maps an invertible
    row set B to a vector v in {-1, 0, 1}^n, so layer 1 of ``layered_svp``,
    the 3^n preimages z = adj(B) v / det(B) that are integral and stay
    short, decides the question.  Returns (True, None) or (False, witness
    z), the witness of the lexicographically first such v.
    """
    t = tableau(a)
    _check_budget(3**a.cols, budget, "preimage scan")
    z = next(_layer(t, 1), None)
    if z is None:
        return True, None
    if max(map(abs, a.matvec(z))) > 1:
        raise InvariantError("preimage witness has norm above 1")
    return False, z

