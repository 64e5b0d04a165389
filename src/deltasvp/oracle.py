"""Complete brute-force procedures for the infinity-norm shortest vector.

These are deliberately naive: a box enumeration with a provably sufficient
radius, and an exact decision of "no lattice vector of norm below 2" by
enumerating the 3^n possible images on an invertible row set.  They exist
to validate the iterative solver and to certify the explicit instance
constructions, so completeness beats speed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import BudgetExceededError, DomainError, RankError
from .linalg import IntMatrix, ScaledInverse, max_abs_full_rank_subdet, rank, tableau

DEFAULT_BOX_BUDGET = 10_000_000
DEFAULT_PREIMAGE_BUDGET = 3**13


@dataclass(frozen=True)
class OracleResult:
    """Exact minimizer found by enumeration; norm may be any positive value."""

    z: tuple[int, ...]
    y: tuple[int, ...]
    norm: int


def _greedy_inverse(a: IntMatrix) -> ScaledInverse:
    """adj(B) / det(B) for the greedy invertible row set B of A."""
    try:
        return tableau(a).inverse
    except RankError:
        raise RankError("full column rank required") from None


def enum_bound(a: IntMatrix) -> int:
    """Box radius K certain to contain a global minimizer of ||A z||_inf.

    The best column gives an upper bound U on the optimum; any z at least
    that good satisfies B z in [-U, U]^n for an invertible row set B, so
    |z_i| <= (1-norm of adjugate row i) * U / |det B|.
    """
    inv = _greedy_inverse(a)
    u = min(max(abs(x) for x in a.column(j)) for j in range(a.cols))
    d = abs(inv.denominator)
    k = max(sum(abs(x) for x in row) * u // d for row in inv.numerator.entries)
    return max(k, 1)


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
    if (2 * k + 1) ** n > budget:
        raise BudgetExceededError(
            f"box enumeration of size {(2 * k + 1) ** n} exceeds budget {budget}"
        )
    best_norm: int | None = None
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for z in product(range(-k, k + 1), repeat=n):
        if not any(z):
            continue
        y = a.matvec(z)
        norm = max(abs(x) for x in y)
        if best_norm is None or norm < best_norm:
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
    row set B to a vector in {-1, 0, 1}^n, so scanning all 3^n preimages
    B^-1 v and keeping the integral ones that stay short decides the
    question.  Returns (True, None) or (False, witness z).
    """
    inv = _greedy_inverse(a)
    n = a.cols
    if 3**n > budget:
        raise BudgetExceededError(f"preimage scan of size {3 ** n} exceeds budget {budget}")
    d_signed = inv.denominator
    for v in product((-1, 0, 1), repeat=n):
        if not any(v):
            continue
        numerator = inv.numerator.matvec(v)
        if any(x % d_signed for x in numerator):
            continue
        z = tuple(x // d_signed for x in numerator)
        y = a.matvec(z)
        if max(abs(x) for x in y) <= 1:
            return False, z
    return True, None


def certifies_lower_bound(
    a: IntMatrix,
    delta: int,
    minor_budget: int | None = None,
    preimage_budget: int | None = None,
) -> bool:
    """True iff A is exactly delta-modular and has no lattice vector of
    norm below 2, witnessing that cols(A) dimensions are not enough
    to force a norm-1 vector at this delta.
    """
    if delta < 1:
        raise DomainError("delta must be >= 1")
    minor_kwargs = {} if minor_budget is None else {"budget": minor_budget}
    largest, _ = max_abs_full_rank_subdet(a, **minor_kwargs)
    if largest != delta:
        return False
    preimage_kwargs = {} if preimage_budget is None else {"budget": preimage_budget}
    decided, _ = shortest_is_at_least_2(a, **preimage_kwargs)
    return decided
