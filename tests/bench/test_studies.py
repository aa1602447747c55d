"""The study registry and the ``repro study`` command built on it."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.bench.studies import STUDIES
from repro.cli import main

CI_WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def smoke_reports():
    """Every study's report at its CI smoke scale, seed 0."""
    return {name: study.run(study.smoke_scale, 0) for name, study in STUDIES.items()}


@pytest.mark.parametrize("name", list(STUDIES))
class TestRegisteredStudy:
    def test_verdicts_hold_at_smoke_scale(self, name, smoke_reports):
        verdicts = STUDIES[name].verdicts(smoke_reports[name])
        assert verdicts
        assert all(verdicts.values()), verdicts

    def test_failed_verdict_exits_nonzero(self, name, smoke_reports, monkeypatch, capsys):
        study = STUDIES[name]
        report = smoke_reports[name]
        first = next(iter(study.verdicts(report)))
        patched = dataclasses.replace(
            study,
            run=lambda scale, seed: report,
            verdicts=lambda r: {**study.verdicts(r), first: False},
        )
        monkeypatch.setitem(STUDIES, name, patched)
        assert main(["study", name, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        assert first in captured.err
        monkeypatch.setitem(STUDIES, name, dataclasses.replace(study, run=lambda s, n: report))
        assert main(["study", name]) == 0
        assert f"{first}: yes" in capsys.readouterr().out


def test_ci_study_matrix_matches_registry():
    matrix = re.search(r"^ +study: \[(.*)\]$", CI_WORKFLOW.read_text(), re.MULTILINE)
    assert matrix is not None
    assert [name.strip() for name in matrix.group(1).split(",")] == list(STUDIES)


def test_cli_help_names_every_study(capsys):
    """``study --help`` lists the registry, which the parser does not import."""
    with pytest.raises(SystemExit):
        main(["study", "--help"])
    study_help = capsys.readouterr().out
    assert all(name in study_help for name in STUDIES)


def test_unknown_study_rejected():
    with pytest.raises(SystemExit):
        main(["study", "nope"])
