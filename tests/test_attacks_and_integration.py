"""Tests for the attack library and end-to-end attack/defence integration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.code_injection import run_code_injection_tagged, run_code_injection_untagged
from repro.attacks.memory_attacks import standard_address_attacks
from repro.attacks.outcomes import AttackOutcome, OutcomeKind, classify
from repro.attacks.payloads import (
    OverflowSpec,
    benign_request,
    traversal_path,
    uid_overwrite_payload,
)
from repro.api.campaign import prepare_attack, run_attack, run_campaign
from repro.api.spec import (
    ADDRESS_PARTITIONING_SPEC,
    SINGLE_PROCESS_SPEC,
    UID_DIVERSITY_SPEC,
    SystemSpec,
)
from repro.attacks.uid_attacks import UIDAttack, standard_uid_attacks
from repro.apps.httpd.http import parse_request
from repro.apps.httpd.vulnerable import ANNOTATION_BUFFER_SIZE, VULNERABLE_HEADER
from repro.core.alarm import AlarmType
from repro.memory.corruption import CorruptionSpec


class TestPayloads:
    def test_traversal_path_escapes_docroot(self):
        assert traversal_path("/etc/shadow").endswith("etc/shadow")
        assert traversal_path().count("../") == 3

    def test_overflow_spec_fills_buffer_then_writes_word(self):
        value = OverflowSpec(fields=(0x41424344,)).header_value()
        assert len(value) == ANNOTATION_BUFFER_SIZE + 4
        assert value[:ANNOTATION_BUFFER_SIZE] == "A" * ANNOTATION_BUFFER_SIZE
        assert value[ANNOTATION_BUFFER_SIZE:] == "DCBA"  # little endian

    def test_partial_bytes_trims_last_word(self):
        value = OverflowSpec(fields=(0,), partial_bytes=2).header_value()
        assert len(value) == ANNOTATION_BUFFER_SIZE + 2

    def test_overflow_spec_validation(self):
        with pytest.raises(ValueError):
            OverflowSpec(fields=()).header_value()
        with pytest.raises(ValueError):
            OverflowSpec(fields=(0,), partial_bytes=9).header_value()

    def test_uid_overwrite_payload_is_parseable_http(self):
        request = parse_request(uid_overwrite_payload(0))
        assert request.header(VULNERABLE_HEADER)
        assert ".." in request.path

    def test_benign_request_rejects_oversized_annotation(self):
        with pytest.raises(ValueError):
            benign_request(annotation="A" * 200)

    def test_uid_attack_requires_exactly_one_mechanism(self):
        with pytest.raises(ValueError):
            UIDAttack(name="x", description="bad", payload=b"a", corruption=CorruptionSpec("bit-flip", 0))
        with pytest.raises(ValueError):
            UIDAttack(name="x", description="bad")


class TestOutcomeClassification:
    def test_classify_matrix(self):
        assert classify(goal_reached=True, detected=False) is OutcomeKind.UNDETECTED_COMPROMISE
        assert classify(goal_reached=True, detected=True) is OutcomeKind.DETECTED
        assert classify(goal_reached=False, detected=False) is OutcomeKind.NO_EFFECT
        assert classify(goal_reached=False, detected=False, crashed=True) is OutcomeKind.CRASHED

    def test_security_failure_flag(self):
        outcome = AttackOutcome(
            attack="a", configuration="c", kind=OutcomeKind.UNDETECTED_COMPROMISE,
            goal_reached=True, detected=False,
        )
        assert outcome.is_security_failure
        assert "undetected" in outcome.describe()


class TestUIDAttackEndToEnd:
    def test_root_overwrite_succeeds_against_single_process(self):
        attack = next(a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite")
        outcome = run_attack(attack, SINGLE_PROCESS_SPEC)
        assert outcome.kind is OutcomeKind.UNDETECTED_COMPROMISE
        assert outcome.goal_reached

    def test_root_overwrite_detected_by_uid_variation(self):
        attack = next(a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite")
        outcome = run_attack(attack, UID_DIVERSITY_SPEC)
        assert outcome.kind is OutcomeKind.DETECTED
        assert not outcome.goal_reached

    def test_partial_overwrites_detected_by_uid_variation(self):
        for name in ("partial-1-byte-overwrite", "partial-2-byte-overwrite", "partial-3-byte-overwrite"):
            attack = next(a for a in standard_uid_attacks() if a.name == name)
            outcome = run_attack(attack, UID_DIVERSITY_SPEC)
            assert outcome.kind is OutcomeKind.DETECTED, name

    def test_bit_flips_are_outside_the_guarantee(self):
        for name in ("low-bit-flip", "high-bit-flip"):
            attack = next(a for a in standard_uid_attacks() if a.name == name)
            outcome = run_attack(attack, UID_DIVERSITY_SPEC)
            assert outcome.kind is not OutcomeKind.DETECTED, name

    def test_address_partitioning_does_not_stop_uid_attack(self):
        attack = next(a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite")
        outcome = run_attack(attack, ADDRESS_PARTITIONING_SPEC)
        assert outcome.kind is OutcomeKind.UNDETECTED_COMPROMISE

    def test_masquerade_attack_reads_victim_file_when_undetected(self):
        attack = next(a for a in standard_uid_attacks() if a.name == "full-word-user-overwrite")
        single = run_attack(attack, SINGLE_PROCESS_SPEC)
        assert single.goal_reached
        protected = run_attack(attack, UID_DIVERSITY_SPEC)
        assert protected.detected

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=0x7FFFFFFF))
    def test_any_injected_complete_uid_is_detected(self, injected_uid):
        attack = UIDAttack(
            name=f"inject-{injected_uid}",
            description="property-based complete-value injection",
            payload=uid_overwrite_payload(injected_uid),
        )
        outcome = run_attack(attack, UID_DIVERSITY_SPEC)
        assert outcome.detected


class TestAddressAndCodeInjection:
    def test_address_attack_matrix(self):
        for attack in standard_address_attacks():
            single = run_attack(attack, SINGLE_PROCESS_SPEC)
            redundant = run_attack(attack, ADDRESS_PARTITIONING_SPEC)
            assert redundant.detected
            assert not redundant.goal_reached
            assert single.detected is False

    def test_code_injection_untagged_vs_tagged(self):
        baseline = run_code_injection_untagged()
        protected = run_code_injection_tagged()
        assert baseline.kind is OutcomeKind.UNDETECTED_COMPROMISE
        assert protected.kind is OutcomeKind.DETECTED


#: One attack per cell builder: remote UID overwrite, in-place UID
#: corruption, address injection.
FAMILY_REPRESENTATIVES = (
    "full-word-root-overwrite",
    "low-bit-flip",
    "absolute-address-injection",
)


def _standard_attack(name):
    return next(
        a for a in [*standard_uid_attacks(), *standard_address_attacks()] if a.name == name
    )


def _finished_cell(attack, spec):
    cell = prepare_attack(attack, spec)
    session = cell.start()
    while not session.done:
        session.step()
    return session, cell.finish(session)


class TestOneVariantCells:
    @pytest.mark.parametrize("attack_name", FAMILY_REPRESENTATIVES)
    def test_one_variant_spec_fields_are_honoured(self, attack_name):
        spec = SystemSpec(
            name="one-wide", num_variants=1, interposition="wide", max_rounds=777, transformed=True
        )
        session, outcome = _finished_cell(_standard_attack(attack_name), spec)
        assert session.spec is spec
        assert session.interposition == "wide"
        assert session.max_rounds == 777
        # Only the transformed build asks the kernel to decode a UID.
        assert session.kernel.stats.syscall_breakdown.get("uid_value", 0) > 0
        assert outcome.configuration == "one-wide"

    def test_faulting_one_variant_session_is_a_crash(self):
        attack = _standard_attack("high-partition-address-injection")
        session, outcome = _finished_cell(attack, SINGLE_PROCESS_SPEC)
        # The lone variant's fault is its only alarm: no sibling diverged.
        [alarm] = session.monitor.alarms
        assert alarm.alarm_type is AlarmType.VARIANT_FAULT
        assert outcome.kind is OutcomeKind.CRASHED
        assert outcome.detected is False
        assert not outcome.goal_reached
        assert outcome.detail.startswith("fault=segfault")


class TestCampaignRunner:
    def test_campaign_report_summaries(self):
        specs = (SINGLE_PROCESS_SPEC, UID_DIVERSITY_SPEC)
        attacks = [a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"]
        report = run_campaign(specs, attacks)
        assert len(report.outcomes) == 2
        assert report.detection_rate("2-variant-uid") == 1.0
        assert report.detection_rate("single-process") == 0.0
        assert report.matrix()["full-word-root-overwrite"]["2-variant-uid"] == "detected"
        assert "undetected compromises" in report.describe()

    def test_legacy_campaign_shims_are_gone(self):
        """The one-release deprecation window closed: the shims must not
        resurface (scenarios are the only way to describe configurations)."""
        import repro.attacks as attacks_package

        assert not hasattr(attacks_package, "CampaignConfiguration")
        assert not hasattr(attacks_package, "run_uid_campaign")
        assert not hasattr(attacks_package, "run_address_campaign")
        with pytest.raises(ModuleNotFoundError):
            import repro.attacks.runner  # noqa: F401
