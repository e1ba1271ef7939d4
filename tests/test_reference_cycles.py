"""Finished runs free themselves by reference counting.

A session, campaign cell or load run that has ended must leave nothing that
only the cyclic garbage collector can free: no stored fault whose traceback
holds the stepping frame (and through it the session), and no accept hook
that links a listener back to the open-loop run driving its kernel.  Each
case runs its work once to settle imports and caches, then again with the
collector disabled; a ``gc.collect()`` afterwards must find nothing.

The slow-marked sweep does the same for every example scenario through
``run_scenario``; ``make check-gc`` runs it.
"""

from __future__ import annotations

import collections
import gc
from pathlib import Path

import pytest

from repro.api.cli import load_scenario, run_scenario
from repro.api.spec import (
    ADDRESS_PARTITIONING_SPEC,
    ADDRESS_UID_SPEC,
    FleetSpec,
    WorkloadSpec,
    uid_orbit_spec,
)
from repro.apps.catalog import get_app
from repro.apps.clients.webbench import drive_engine
from repro.attacks.memory_attacks import prepare_address_attack, standard_address_attacks
from repro.corpus.generator import generate_corpus
from repro.corpus.runner import run_corpus_records
from repro.engine import SessionState
from repro.load import driver

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "examples" / "scenarios").glob("*.json"))


def _cyclic_garbage(run) -> collections.Counter:
    """What a second call of *run* leaves for the cyclic collector, by type.

    The first call is the warm-up; the second runs with the collector off,
    so every cycle it made is still there for the final collection to find.
    """
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _loadtest():
    return driver.run_loadtest(
        uid_orbit_spec(3),
        app="ftpd",
        arrival="bursty",
        rate=15.0,
        requests=16,
        admission="token-bucket",
        admission_params={"rate": 18.75, "burst": 4.0},
        attacks=("uid-overwrite", "pointer-overwrite"),
        migrate_after=4,
        name="cycles",
    )


def test_corpus_slice_leaves_no_cycles():
    records = generate_corpus(records=24)
    # The slice has cells that end on a variant's segmentation fault.
    assert {record.family for record in records} == {"uid", "address"}
    garbage = _cyclic_garbage(lambda: run_corpus_records(records, workers=8))
    assert not garbage, garbage.most_common(8)


def test_open_loop_run_leaves_no_cycles():
    result = _loadtest()
    # Both attacks halt a session, so the run restarts as well as migrates.
    assert result.migrated and result.bursts == 3
    assert [outcome["halted"] for outcome in result.attack_outcomes] == [True, True]
    garbage = _cyclic_garbage(_loadtest)
    assert not garbage, garbage.most_common(8)


def test_engine_fleet_leaves_no_cycles():
    fleet = FleetSpec(
        system=ADDRESS_UID_SPEC,
        num_sessions=2,
        workload=WorkloadSpec(total_requests=8, requests_per_connection=2),
        multiplex=2,
    )
    assert drive_engine(fleet).requests_completed == 8
    garbage = _cyclic_garbage(lambda: drive_engine(fleet))
    assert not garbage, garbage.most_common(8)


def test_failed_open_loop_run_releases_the_accept_hook(monkeypatch):
    runs = []

    def fail(run):
        runs.append(run)
        raise RuntimeError("mid-run failure")

    monkeypatch.setattr(driver._OpenLoopRun, "_harvest_completions", fail)
    with pytest.raises(RuntimeError, match="mid-run failure"):
        _loadtest()
    listener = runs[0].session.kernel.network.listener(get_app("ftpd").port)
    assert listener.on_empty is None


def test_stored_fault_keeps_no_traceback():
    attack = standard_address_attacks()[0]
    cell = prepare_address_attack(attack, ADDRESS_PARTITIONING_SPEC)
    session = cell.start()
    while not session.done:
        session.step()
    assert session.state is SessionState.HALTED
    fault = session._runtimes[1].fault
    assert fault.kind == "segfault"
    assert fault.__traceback__ is None and fault.__context__ is None
    description = "variant 1 faulted: segfault: address 0x00200008 outside partition 1"
    assert [alarm.description for alarm in session.monitor.alarms] == [description]
    assert [variant.fault for variant in session.result().variants] == [
        "halted by monitor after divergence",
        "segfault: address 0x00200008 outside partition 1",
    ]
    assert cell.finish(session).detail == f"[variant-fault] {description} variant=1"


@pytest.mark.slow
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_example_scenario_leaves_no_cycles(path):
    data = load_scenario(path)
    garbage = _cyclic_garbage(lambda: run_scenario(data))
    assert not garbage, garbage.most_common(8)
