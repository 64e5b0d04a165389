"""Seeded random property sweeps shared by the CLI and the test suite.

Each sweep draws instances from a fixed-size family with an explicit seed,
so a reported failure is reproducible from (seed, trial index) alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError
from .generators import random_full_rank
from .linalg import _check_budget, det, subdet_ratio_check
from .polyhedra import verify_kernel_identity

#: Most trials one sweep runs (a few minutes at a few hundred microseconds
#: per trial); a larger count is refused before the first draw.
MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class SweepReport:
    name: str
    trials: int
    failures: int
    first_failure: int | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _sweep(
    name: str, trials: int, seed: int, trial: Callable[[random.Random], bool]
) -> SweepReport:
    """Runs ``trials`` draws from one generator seeded with ``seed``;
    ``trial(rng)`` draws one instance and says whether the identity holds."""
    if trials < 1:
        raise DomainError("need at least one trial")
    _check_budget(trials, MAX_TRIALS, f"{name} sweep")
    rng = random.Random(seed)
    failed = [index for index in range(trials) if not trial(rng)]
    return SweepReport(name, trials, len(failed), failed[0] if failed else None)


def ratio_identity_sweep(trials: int, seed: int) -> SweepReport:
    """Random determinant-ratio identity checks on small dense matrices.

    Matrices have up to 6 rows, 4 columns, entries in [-9, 9]; the base row
    set, row selection and column selection are drawn uniformly among the
    valid ones.
    """

    def trial(rng: random.Random) -> bool:
        n = rng.randint(1, 4)
        m = rng.randint(n, 6)
        a = random_full_rank(rng, m, n, -9, 9)
        while True:
            base = sorted(rng.sample(range(m), n))
            if det(a.submatrix_rows(base)) != 0:
                break
        k = rng.randint(1, n)
        i_rows = sorted(rng.sample(range(m), k))
        j_cols = sorted(rng.sample(range(n), k))
        return subdet_ratio_check(a, base, i_rows, j_cols)

    return _sweep("determinant-ratio identity", trials, seed, trial)


def kernel_identity_sweep(trials: int, seed: int) -> SweepReport:
    """Random kernel-minor identity checks on full-row-rank matrices with
    up to 3 rows and 6 columns, entries in [-9, 9]."""

    def trial(rng: random.Random) -> bool:
        m = rng.randint(1, 3)
        n = rng.randint(m, 6)
        return verify_kernel_identity(random_full_rank(rng, m, n, -9, 9))

    return _sweep("kernel determinant identity", trials, seed, trial)
