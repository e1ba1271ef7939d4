"""Every cell of the standard attack matrix, pinned byte for byte.

The matrix is the nine standard attacks (seven UID corruptions, two address
injections) against each of the two serving apps, times the seven committed
system specs: the four of :data:`~repro.api.spec.STANDARD_SYSTEM_SPECS` and
the three orbit specs.  Each of its 126 cells is prepared through
:func:`~repro.api.campaign.prepare_attack`, stepped to its end, and
recorded: the outcome's kind, ``goal_reached``, ``detected`` and detail,
plus the session's lockstep rounds and virtual ticks.  The record must
equal ``attack_cells_pin.json`` exactly, so a change to how a cell is built
or judged shows up here cell by cell.  To rewrite the file after a
deliberate change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_attack_cells_pin.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.api.campaign import prepare_attack, standard_attacks
from repro.api.spec import (
    ADDRESS_ORBIT_3_SPEC,
    COMBINED_ORBIT_3_SPEC,
    STANDARD_SYSTEM_SPECS,
    UID_ORBIT_3_SPEC,
)

PIN = Path(__file__).resolve().parent / "attack_cells_pin.json"

COMMITTED_SPECS = (
    *STANDARD_SYSTEM_SPECS,
    UID_ORBIT_3_SPEC,
    ADDRESS_ORBIT_3_SPEC,
    COMBINED_ORBIT_3_SPEC,
)


def _observe_matrix() -> dict[str, dict]:
    cells = {}
    for app in ("httpd", "ftpd"):
        for attack in standard_attacks(app):
            for spec in COMMITTED_SPECS:
                cell = prepare_attack(attack, spec)
                session = cell.start()
                while not session.done:
                    session.step()
                outcome = cell.finish(session)
                cells[f"{app}/{cell.name}"] = {
                    "kind": outcome.kind.value,
                    "goal_reached": outcome.goal_reached,
                    "detected": outcome.detected,
                    "detail": outcome.detail,
                    "rounds": session.rounds,
                    "virtual_elapsed": session.virtual_elapsed,
                }
    return cells


def test_every_committed_cell_matches_its_pin():
    observed = _observe_matrix()
    assert len(observed) == 2 * 9 * len(COMMITTED_SPECS) == 126
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        PIN.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    pinned = json.loads(PIN.read_text())
    assert sorted(observed) == sorted(pinned)
    changed = [name for name in pinned if observed[name] != pinned[name]]
    assert changed == [], {name: (pinned[name], observed[name]) for name in changed[:3]}
