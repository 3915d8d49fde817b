"""The paper registry (``benchmarks/paper.py``): its tables, pinned at a
small key count, and its runner's verdict.

``paper_golden.json`` holds every table each claim prints at
``N_KEYS`` keys per dataset, with the wall-clock cells (``Clock``)
written as ``*``.  Claims that fix their own key count run at that
count.  The file was recorded from the per-figure scripts the registry
replaced.  Re-record it only for a change meant to alter the output::

    PYTHONPATH=src python tests/evaluation/test_paper.py

The claims are sized for the runner's default 10,000 keys; at
``N_KEYS`` the deterministic checks in ``FAILING_AT_N_KEYS`` do not
hold, and every other deterministic check does.  Checks that read the
wall clock are left to the full run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("paper_golden.json")
_spec = importlib.util.spec_from_file_location(
    "paper", Path(__file__).resolve().parents[2] / "benchmarks" / "paper.py"
)
paper = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper)

N_KEYS = 500
FAILING_AT_N_KEYS = {
    "ablation_cost_threshold": {"c = 0 rebuilds something on genome"},
    "fig05": {
        "OSM is the least linear globally",
        "the others' global R2 > 0.98",
        "Covid's mean local R2 > 0.99",
    },
    "fig09": {"time saved >= 0 at every N"},
    "fig10": {"time saved >= 0 before inserts"},
}


@pytest.fixture(scope="module")
def run():
    return paper.Run(N_KEYS)


def _tables(outcome) -> dict[str, list[str]]:
    return {table.title: table.render(mask_clock=True).splitlines() for table in outcome.tables}


def test_every_claim_is_pinned():
    assert sorted(paper.CLAIMS) == sorted(json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("entry", sorted(paper.CLAIMS))
def test_paper_tables_are_pinned(entry, run):
    outcome = paper.CLAIMS[entry](run)
    assert _tables(outcome) == json.loads(GOLDEN.read_text())[entry]
    failing = {c.name for c in outcome.checks if not c.passed and not c.reads_clock}
    assert failing == FAILING_AT_N_KEYS.get(entry, set())


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    def broken(run):
        return paper.Outcome([], [paper.Check("holds", True, 1), paper.Check("never holds", False, 0)])

    monkeypatch.setitem(paper.CLAIMS, "broken", broken)
    assert paper.main(["--only", "broken", "--n", "10"]) == 1
    out = capsys.readouterr().out
    assert "1 of 2 checks passed" in out
    assert "FAILED broken: never holds" in out
    assert "FAILED broken: holds" not in out


def test_only_runs_the_named_claims(capsys):
    assert paper.main(["--only", "fig02", "fig04"]) == 0
    out = capsys.readouterr().out
    assert "===== fig02_smoothing_example =====" in out
    assert "===== fig04_derivative_curve =====" in out
    assert "fig03" not in out


def test_an_unknown_claim_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        paper.main(["--only", "fig99"])
    assert exit_info.value.code == 2


def test_claims_share_one_alpha_sweep(monkeypatch):
    calls = []

    def counted(family, dataset, n):
        calls.append((family, dataset))
        return real(family, dataset, n=n)

    real = paper.run_alpha_sweep
    monkeypatch.setattr(paper, "run_alpha_sweep", counted)
    run = paper.Run(200)
    for entry in ("fig06", "fig07", "fig08", "table3_4"):
        paper.CLAIMS[entry](run)
    assert sorted(calls) == sorted(
        (family, dataset) for family in paper.CSV_FAMILIES for dataset in paper.DATASETS
    )


if __name__ == "__main__":
    run = paper.Run(N_KEYS)
    GOLDEN.write_text(
        json.dumps({entry: _tables(claim(run)) for entry, claim in sorted(paper.CLAIMS.items())}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
