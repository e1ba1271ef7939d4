"""Golden outputs of every example scenario through ``repro run``, and of the listings.

Each file under ``examples/scenarios/`` is run in-process once and its
report rendered as text and as JSON; both renderings must match the
committed files under ``tests/goldens/`` exactly, apart from the wall-clock
``wall_seconds`` figure, which is masked.  The registry listings
(``repro variations``, ``repro experiments`` and ``repro experiments
--names``) are pinned the same way, so a variation or experiment whose
module is imported late still lists the same description and parameters.
A change to what the CLI prints therefore shows up as a reviewed diff of
those files.  To regenerate them after a deliberate output change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_cli_goldens.py
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.api.cli import load_scenario, main, run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "examples" / "scenarios").glob("*.json"))
GOLDENS = Path(__file__).resolve().parent / "goldens"

#: ``wall_seconds`` is the one figure that differs between runs.
_WALL_SECONDS = re.compile(r'(wall_seconds"?\s*:\s*)[-+0-9.e]+')


#: Each listing command's golden file, by its arguments.
LISTINGS = {
    "listing_variations": ["variations"],
    "listing_experiments": ["experiments"],
    "listing_experiments_names": ["experiments", "--names"],
}


def _check_golden(golden: Path, actual: str) -> None:
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        golden.write_text(actual)
    assert actual == golden.read_text(), f"{golden.name} differs"


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _render(path: Path) -> dict[str, str]:
    """The scenario's text and JSON renderings, wall-clock figures masked."""
    report = run_scenario(load_scenario(path))
    assert report.ok, report.failed_claims
    # Every kind renders to every format, and its JSON is strict JSON.
    assert report.format("markdown").startswith("### ")
    json.loads(report.format("json"), parse_constant=_reject_constant)
    return {
        suffix: _WALL_SECONDS.sub(r"\1<masked>", report.format(output) + "\n")
        for output, suffix in (("text", "txt"), ("json", "json"))
    }


def test_every_example_scenario_has_goldens():
    assert len(SCENARIOS) == 8
    expected = {f"{path.stem}.{suffix}" for path in SCENARIOS for suffix in ("txt", "json")}
    expected |= {f"{name}.txt" for name in LISTINGS}
    assert {golden.name for golden in GOLDENS.iterdir()} == expected


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_scenario_output_matches_golden(path):
    for suffix, actual in _render(path).items():
        _check_golden(GOLDENS / f"{path.stem}.{suffix}", actual)


@pytest.mark.parametrize("name", LISTINGS)
def test_listing_matches_golden(name, capsys):
    assert main(LISTINGS[name]) == 0
    _check_golden(GOLDENS / f"{name}.txt", capsys.readouterr().out)
