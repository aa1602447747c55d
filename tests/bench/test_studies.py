"""The study registry and the ``repro study`` command built on it."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.bench.report import FigureReport
from repro.bench.studies import STUDIES
from repro.cli import main

CI_WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

#: Studies whose smoke run is cheap enough for every change: the five
#: system studies and the figures that finish in well under a second.
#: The serving figures take seconds to a minute each and run in CI's
#: study-smoke matrix instead.
SMOKE_RUN = (
    "tenancy",
    "kvtiers",
    "spec",
    "hetero",
    "scenarios",
    "fig3",
    "fig5",
    "fig6",
    "fig11",
    "fig13",
    "estimator",
    "overheads",
)

#: What the CLI wiring tests run a slow study on instead of its figure.
STUB = FigureReport({"stub": (1.0, {2: True})}, {"events_processed": 3.0})


@pytest.fixture(scope="module")
def smoke_reports():
    """The cheap studies' reports at their CI smoke scale, seed 0."""
    return {name: STUDIES[name].run(STUDIES[name].smoke_scale, 0) for name in SMOKE_RUN}


class TestRegisteredStudy:
    @pytest.mark.parametrize("name", SMOKE_RUN)
    def test_verdicts_hold_at_smoke_scale(self, name, smoke_reports):
        verdicts = STUDIES[name].verdicts(smoke_reports[name])
        assert verdicts
        assert all(verdicts.values()), verdicts

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_failed_verdict_exits_nonzero(self, name, smoke_reports, monkeypatch, capsys):
        study = STUDIES[name]
        if name in smoke_reports:
            report, verdicts, render = smoke_reports[name], study.verdicts, study.render
        else:
            report, verdicts, render = STUB, lambda r: {"stub_shape": True}, lambda r: "stub"
        first = next(iter(verdicts(report)))
        patched = dataclasses.replace(
            study,
            run=lambda scale, seed: report,
            verdicts=lambda r: {**verdicts(r), first: False},
            render=render,
        )
        monkeypatch.setitem(STUDIES, name, patched)
        assert main(["study", name, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        assert first in captured.err
        monkeypatch.setitem(STUDIES, name, dataclasses.replace(patched, verdicts=verdicts))
        assert main(["study", name]) == 0
        assert f"{first}: yes" in capsys.readouterr().out


def test_figure_report_json_is_plain():
    assert STUB.as_dict() == {"stub": [1.0, {"2": True}], "extras": {"events_processed": 3.0}}


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
