"""The narrative demos run end to end in-process.  Demo 04 is left out: its
three validation suites run in test_acceptance.py and test_cli.py."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# demo -> a line of its output that only a finished run prints
EXPECTED = {
    "01_mine_basic": "significant patterns:",
    "02_method_comparison": "threshold orderings:",
    "03_resample_sweep": "conditional improvement 10->50 resamples",
    "05_itemset_mode": "flagged",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out
