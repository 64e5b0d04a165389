"""Complete enumeration procedures for the infinity-norm shortest vector.

A box enumeration with a provably sufficient radius, and an exact decision
of "no lattice vector of norm below 2" by enumerating the 3^n possible
images on an invertible row set.  They validate the iterative solver,
answer below its dimension threshold and certify the explicit instance
constructions, so both scans stay complete and visit points in
lexicographic order.  Both run on the split scan of ``linalg``: the images
of the trailing half of the coordinates are computed once, so a box point
costs one vector addition, and the 3^n scan joins the two halves on the
residue of adj(B) v modulo det(B), so only the integral preimages are
looked at.  Neither split changes which point is found first.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import DomainError, InvariantError, RankError
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
DEFAULT_PREIMAGE_BUDGET = 3**13


@dataclass(frozen=True)
class OracleResult:
    """Exact minimizer found by enumeration; norm may be any positive value."""

    z: tuple[int, ...]
    y: tuple[int, ...]
    norm: int


def _greedy_tableau(a: IntMatrix) -> Tableau:
    """The tableau of A on its greedy invertible row set B."""
    try:
        return tableau(a)
    except RankError:
        raise RankError("full column rank required") from None


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
    return _radius(a, _greedy_tableau(a))


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


def shortest_is_at_least_2(
    a: IntMatrix, budget: int = DEFAULT_PREIMAGE_BUDGET
) -> tuple[bool, tuple[int, ...] | None]:
    """Exact decision: does every nonzero lattice vector have norm >= 2?

    Complete by construction: any z with ||A z||_inf <= 1 maps an invertible
    row set B to a vector v in {-1, 0, 1}^n, so scanning all 3^n preimages
    z = adj(B) v / det(B) and keeping the integral ones that stay short
    decides the question.  Returns (True, None) or (False, witness z), the
    witness of the lexicographically first such v.

    The scan splits v into a head and a tail half over the stacked matrix
    [adj(B); N], N = A adj(B), and groups the tails by the residue of
    adj(B) v_tail modulo det(B): each head meets only the tails that make
    z integral, and keeps v when ||N v||_inf <= |det(B)|, which is
    ||A z||_inf <= 1.
    """
    t = _greedy_tableau(a)
    n = a.cols
    _check_budget(3**n, budget, "preimage scan")
    d = t.det
    modulus = abs(d)
    stacked = IntMatrix._trusted(t.adj.entries + t.numerators.entries)
    heads, tails = _box_halves(stacked, [range(-1, 2)] * n)
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for _, image in tails:
        key = tuple(x % modulus for x in image[:n])
        groups.setdefault(key, []).append((image[:n], image[n:]))
    for _, head_image in heads:
        head_adj, head_n = head_image[:n], head_image[n:]
        for tail_adj, tail_n in groups.get(tuple(-x % modulus for x in head_adj), ()):
            if max(map(abs, map(add, head_n, tail_n))) > modulus:
                continue
            numerator = tuple(map(add, head_adj, tail_adj))
            if not any(numerator):
                continue  # v = 0
            z = tuple(x // d for x in numerator)
            if max(map(abs, a.matvec(z))) > 1:
                raise InvariantError("preimage witness has norm above 1")
            return False, z
    return True, None


def certifies_lower_bound(
    a: IntMatrix,
    delta: int,
    minor_budget: int = DEFAULT_MINOR_BUDGET,
    preimage_budget: int = DEFAULT_PREIMAGE_BUDGET,
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
