"""The scripts under scripts/, run through their main(argv) on tiny inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

from egr import census

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# W_1(3) and L_1(3) have 27 edges each, so their censuses take 27 * 2**2 steps
@pytest.mark.parametrize(
    "budget, mode", [(108, "exhaustive"), (107, "sampled:seed=0,count=256")]
)
def test_parameter_table_budget_reaches_both_tables(capsys, monkeypatch, budget, mode):
    monkeypatch.setattr(census, "AUTO_BUDGET", budget)
    table = load_script("parameter_table")
    argv = ["--wenger-n", "1", "--wenger-q", "3", "--lwenger-m", "1", "--lwenger-q", "3"]
    assert table.main(argv + ["--workers", "1"]) == 0
    wenger, lwenger = capsys.readouterr().out.split("\n\n")
    for text, label in ((wenger, "wenger:n=1,q=3"), (lwenger, "lwenger:m=1,q=3")):
        (row,) = [line.split() for line in text.splitlines() if line.startswith(label)]
        assert row[1:] == ["18", "3", "6", "4", "4", mode, "yes"]


def test_lie_m3_experiment_at_q5(capsys):
    experiment = load_script("lie_m3_experiment")
    assert experiment.main(["--q", "5", "--workers", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"] == "lie:M3,q=5"
    assert report["girth"] == 12
    assert report["base_edge_girth_cycle_count"] == 1680
