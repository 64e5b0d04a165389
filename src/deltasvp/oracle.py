"""Complete enumeration procedures for the infinity-norm shortest vector.

A box enumeration with a provably sufficient radius (``brute_force_svp``,
the reference behind ``svp oracle``), a layered scan of the images B z on
an invertible row set B (``layered_svp``, which the solver runs below its
dimension threshold) and its first layer, the exact decision of "no
lattice vector of norm below 2".  Every scan is complete and visits points
in a fixed order, so its witness is deterministic.  All run on the split
scan of ``linalg``: the images of the trailing half of the coordinates are
computed once, so a box point costs one vector addition, and a layer joins
the two halves on the residue of adj(B) v modulo det(B), so only the
integral preimages are looked at.  Neither split changes which point is
found first.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterator

from .errors import BudgetExceededError, DomainError, InvariantError, RankError
from .linalg import (
    DEFAULT_MINOR_BUDGET,
    IntMatrix,
    Tableau,
    _box_halves,
    _check_budget,
    box_images,
    max_abs_full_rank_subdet,
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
    """brute_force_svp on an A known to have full column rank."""
    n = a.cols
    _check_budget((2 * k + 1) ** n, budget, "box enumeration")
    best_norm: int | None = None
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for z, y in box_images(a, [range(-k, k + 1)] * n):
        norm = max(map(abs, y))
        # full column rank: only z = 0 has norm 0
        if norm and (best_norm is None or norm < best_norm):
            best_norm = norm
            best = (z, y)
            if norm == 1:
                break
    assert best is not None and best_norm is not None
    return OracleResult(best[0], best[1], best_norm)


def _layer(a: IntMatrix, t: Tableau, r: int) -> Iterator[tuple[int, ...]]:
    """Every nonzero z with B z in [-r, r]^n and ||A z||_inf <= r, lazily,
    in lexicographic order of v = B z, from the tableau t of B.

    v splits into a head and a tail half over the stacked matrix
    [adj(B); N], N = A adj(B), and the tails are grouped by the residue of
    adj(B) v_tail modulo det(B): each head meets only the tails that make
    z = adj(B) v / det(B) integral, and keeps v when
    ||N v||_inf <= r |det(B)|, which is ||A z||_inf <= r.
    """
    n = a.cols
    d = t.det
    modulus = abs(d)
    stacked = IntMatrix._trusted(t.adj.entries + t.numerators.entries)
    heads, tails = _box_halves(stacked, [range(-r, r + 1)] * n)
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for _, image in tails:
        key = tuple(x % modulus for x in image[:n])
        groups.setdefault(key, []).append((image[:n], image[n:]))
    for _, head_image in heads:
        head_adj, head_n = head_image[:n], head_image[n:]
        for tail_adj, tail_n in groups.get(tuple(-x % modulus for x in head_adj), ()):
            if max(map(abs, map(add, head_n, tail_n))) > r * modulus:
                continue
            numerator = tuple(map(add, head_adj, tail_adj))
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
        z = min(_layer(a, t, r), default=None)
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
    z = next(_layer(a, t, 1), None)
    if z is None:
        return True, None
    if max(map(abs, a.matvec(z))) > 1:
        raise InvariantError("preimage witness has norm above 1")
    return False, z


def certifies_lower_bound(
    a: IntMatrix,
    delta: int,
    minor_budget: int = DEFAULT_MINOR_BUDGET,
    preimage_budget: int = DEFAULT_BOX_BUDGET,
) -> bool:
    """True iff A is exactly delta-modular and has no lattice vector of
    norm below 2, witnessing that cols(A) dimensions are not enough
    to force a norm-1 vector at this delta.
    """
    if delta < 1:
        raise DomainError("delta must be >= 1")
    largest, _ = max_abs_full_rank_subdet(a, minor_budget)
    if largest != delta:
        return False
    decided, _ = shortest_is_at_least_2(a, preimage_budget)
    return decided
