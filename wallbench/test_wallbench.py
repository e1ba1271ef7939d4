"""Tests of the wall-clock benchmark's own helpers (not of the simulator)."""

from __future__ import annotations

import pytest

from wallbench.checks import corpus_failures, fleet_failures, openloop_failures
from wallbench.stats import percentile, tail_percentile
from wallbench.tracing import Tracer, self_times, uncovered_ns


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 95.0) == 95
    assert percentile([7.0], 99.0) == 7.0


def test_self_time_subtracts_direct_children_once():
    tracer = Tracer()
    root = tracer.record("engine.step", 0, 100)
    child = tracer.record("core.wrappers", 10, 30, parent=root)
    tracer.record("kernel.execute", 12, 20, parent=child)
    tracer.record("core.result", 25, 50, parent=root)  # overlaps the first child
    tracer.record("core.result", 90, 130, parent=root)  # runs past its parent
    assert self_times(tracer) == [100 - 40 - 10, 20 - 8, 8, 25, 40]


def test_uncovered_time_is_the_window_minus_top_level_spans():
    tracer = Tracer()
    top = tracer.record("engine.engine_run", 10, 60)
    tracer.record("engine.step", 20, 30, parent=top)
    tracer.record("kernel.host", 50, 80)
    assert uncovered_ns(tracer, [(0, 100)]) == 100 - 70


def test_uninstall_puts_every_original_back():
    from repro.api import builders
    from repro.apps.clients import webbench
    from repro.engine.session import NVariantSession

    step, build = NVariantSession.step, builders.build_session
    tracer = Tracer()
    tracer.install()
    try:
        assert NVariantSession.step is not step
        assert webbench.build_session is builders.build_session is not build
    finally:
        tracer.uninstall()
    assert NVariantSession.step is step
    assert webbench.build_session is builders.build_session is build


def _response(status: int, body: bytes) -> bytes:
    head = f"HTTP/1.0 {status} X\r\nContent-Length: {len(body)}\r\n\r\n".encode()
    return head + body


def test_fleet_check_fails_a_tampered_or_non_200_response():
    good = [_response(200, b"index") + _response(200, b"logo"), _response(200, b"news")]
    assert fleet_failures(good, good, 3) == (0, [])
    tampered = [good[0], _response(200, b"nEws")]
    assert fleet_failures(tampered, good, 3)[0] == 1
    not_found = [_response(200, b"index") + _response(404, b"logo"), good[1]]
    assert fleet_failures(not_found, not_found, 3)[0] == 1
    assert fleet_failures(good[:1], good, 3)[0] == 1


def test_corpus_check_fails_a_scorecard_miss():
    from repro.corpus.generator import generate_corpus
    from repro.corpus.scorecard import evaluate_corpus

    records = generate_corpus(7, records=4)
    outcomes = [
        {"kind": record.expected_kind, "detected": False, "detail": ""} for record in records
    ]
    assert corpus_failures(evaluate_corpus(records, outcomes))[0] == 0
    outcomes[2] = dict(outcomes[2], kind="tampered")
    failed, reasons = corpus_failures(evaluate_corpus(records, outcomes))
    assert failed == 1 and records[2].record_id in reasons[0]


def _openloop(**changes):
    result = {
        "attack_outcomes": [
            {"attack": "uid-overwrite", "halted": True},
            {"attack": "pointer-overwrite", "halted": True},
        ],
        "admitted": 30,
        "completed": 28,
        "evicted": 0,
        "aborted": 2,
        "migrated": True,
    }
    result.update(changes)
    return result


def test_openloop_check_fails_a_benign_alarm_or_a_missed_attack():
    assert openloop_failures(_openloop()) == (0, [])
    assert openloop_failures(_openloop(completed=27, aborted=3))[0] == 1
    missed = _openloop(
        attack_outcomes=[
            {"attack": "uid-overwrite", "halted": True},
            {"attack": "pointer-overwrite", "halted": False},
        ],
        completed=29,
        aborted=1,
    )
    assert openloop_failures(missed)[0] == 1
    assert openloop_failures(_openloop(migrated=False))[0] == 1
    assert openloop_failures(_openloop(completed=20))[0] == 8
