"""The sweeps' draws, pinned: which instances a seed yields, trial by trial.

Each sweep's check is replaced by a recorder that answers False on every
7th call, so the pinned record also fixes how failures are counted and
which trial is reported first.  tests/fixtures/sweep_draws.json holds the
expected draws.  Regenerate it only for a documented change of a sweep's
instance family:

    PYTHONPATH=src:tests python -c "import test_sweeps as t; t.write_fixture()"
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from deltasvp import sweeps
from deltasvp.errors import DomainError

FIXTURE = Path(__file__).parent / "fixtures" / "sweep_draws.json"
TRIALS = 25
SEED = 3


def _recorder(calls: list):
    def check(a, *selection):
        calls.append([[list(row) for row in a.entries], *map(list, selection)])
        return len(calls) % 7 != 0

    return check


def draws(monkeypatch) -> dict:
    record = {}
    for sweep, check in [
        (sweeps.ratio_identity_sweep, "subdet_ratio_check"),
        (sweeps.kernel_identity_sweep, "verify_kernel_identity"),
    ]:
        calls: list = []
        monkeypatch.setattr(sweeps, check, _recorder(calls))
        record[sweep.__name__] = {"report": asdict(sweep(TRIALS, SEED)), "calls": calls}
    return record


def write_fixture() -> None:
    with pytest.MonkeyPatch.context() as monkeypatch:
        record = draws(monkeypatch)
    FIXTURE.write_text(json.dumps(record, separators=(",", ":")) + "\n")


def test_draws_match_the_pinned_record(monkeypatch):
    expected = json.loads(FIXTURE.read_text())
    for entry in expected.values():
        assert len(entry["calls"]) == TRIALS
        assert entry["report"]["failures"] == 3 and entry["report"]["first_failure"] == 6
    assert draws(monkeypatch) == expected


@pytest.mark.parametrize("sweep", [sweeps.ratio_identity_sweep, sweeps.kernel_identity_sweep])
def test_no_trials_is_a_domain_error(sweep):
    with pytest.raises(DomainError, match="need at least one trial"):
        sweep(0, SEED)
