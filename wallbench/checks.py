"""Output checks: each returns the failed operations and why they failed."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.apps.httpd.http import HttpParseError, split_responses


def _responses(raw: bytes) -> list[tuple]:
    try:
        return split_responses(raw)
    except (HttpParseError, ValueError):
        return []


def fleet_failures(
    served: Sequence[bytes], reference: Sequence[bytes], requests: int
) -> tuple[int, list[str]]:
    """Failed requests of one fleet shard.

    *served* and *reference* hold each connection's response bytes from the
    protected fleet and from the unprotected single-process server on the
    same inputs.  A request fails when it gets no 200, or when its response
    differs from the reference.
    """
    failed = 0
    reasons: list[str] = []
    expected = 0
    for index, want in enumerate(reference):
        got = served[index] if index < len(served) else b""
        want_parts = _responses(want)
        got_parts = _responses(got)
        expected += len(want_parts)
        bad = sum(
            1
            for slot, part in enumerate(want_parts)
            if slot >= len(got_parts) or got_parts[slot] != part or got_parts[slot][0] != 200
        )
        if got != want:
            bad = max(bad, 1)
        if bad:
            reasons.append(f"connection {index}: {bad} response(s) differ from the reference or are not 200")
        failed += bad
    if len(served) > len(reference):
        failed += len(served) - len(reference)
        reasons.append(f"{len(served) - len(reference)} connection(s) the reference never saw")
    if expected < requests:
        failed += requests - expected
        reasons.append(f"{requests - expected} request(s) got no response")
    return failed, reasons


def corpus_failures(scorecard: Any) -> tuple[int, list[str]]:
    """Corpus records whose outcome missed the analytic oracle."""
    reasons = [
        f"{miss.record_id}: expected {miss.expected_kind}, got {miss.actual_kind}"
        for miss in scorecard.misses
    ]
    return scorecard.total - scorecard.passed, reasons


def openloop_failures(result: Mapping[str, Any]) -> tuple[int, list[str]]:
    """Failed operations of one open-loop run (``LoadRunResult.to_dict()``).

    Shedding under overload is the admission policy doing its job, so it is
    not a failure here.  A failure is a benign request aborted by an alarm,
    a trailing attack that was not halted, an admitted request that was
    never accounted for, or a migration that did not happen.
    """
    failed = 0
    reasons: list[str] = []
    attacks = result["attack_outcomes"]
    halted = sum(1 for outcome in attacks if outcome["halted"])
    for outcome in attacks:
        if not outcome["halted"]:
            failed += 1
            reasons.append(f"attack {outcome['attack']} was not halted")
    benign_aborted = result["aborted"] - halted
    if benign_aborted:
        failed += benign_aborted
        reasons.append(f"{benign_aborted} benign request(s) aborted by an alarm")
    accounted = result["completed"] + result["evicted"] + result["aborted"]
    if accounted != result["admitted"]:
        failed += abs(result["admitted"] - accounted)
        reasons.append(f"{accounted} requests accounted for, {result['admitted']} admitted")
    if not result["migrated"]:
        failed += 1
        reasons.append("the mid-run migration did not happen")
    return failed, reasons
