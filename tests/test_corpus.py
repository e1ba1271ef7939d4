"""The scenario corpus: generator determinism, oracle fidelity, scorecards.

The corpus's whole value is that its expectations are *derived* and its
generation is *replayable*: same seed, same bytes, same scorecard, on
either backend.  These tests pin that contract end to end -- matrix
composition, class-balanced trimming, the directory format round-trip
(including the clean-error satellite for malformed files), a handful of
hand-checked oracle expectations at the guarantee edge, and small live
runs graded on both the virtual and process backends.
"""

import json

import pytest

from repro.api.spec import (
    ADDRESS_PARTITIONING_SPEC,
    UID_DIVERSITY_SPEC,
    SystemSpec,
    VariationSpec,
    keyed_uid_spec,
    uid_orbit_spec,
)
from repro.attacks.outcomes import OutcomeKind
from repro.corpus import (
    EXPECTED_BENIGN,
    EXPECTED_DETECTED,
    EXPECTED_EXEMPT,
    CorpusError,
    CorpusRecord,
    generate_corpus,
    read_corpus,
    run_corpus_records,
    write_corpus,
)
from repro.corpus.generator import DEFAULT_RECORDS, DEFAULT_SEED, build_matrix
from repro.corpus.oracle import (
    address_scheme_for_spec,
    annotation_expectation,
    corruption_expectation,
    pointer_expectation,
    remote_uid_overwrite_expectation,
    uid_masks_for_spec,
)
from repro.corpus.scorecard import evaluate_corpus


class TestGenerator:
    def test_default_corpus_is_at_least_200_records(self):
        corpus = generate_corpus(DEFAULT_SEED)
        assert len(corpus) == DEFAULT_RECORDS >= 200

    def test_same_seed_regenerates_byte_identically(self):
        first = [record.to_json() for record in generate_corpus(DEFAULT_SEED)]
        second = [record.to_json() for record in generate_corpus(DEFAULT_SEED)]
        assert first == second

    def test_different_seeds_differ_in_keyed_records(self):
        # Keyed specs draw their masks from the seed, so the serialized
        # corpora must differ somewhere even though the matrix shape matches.
        first = [record.to_json() for record in generate_corpus(1)]
        second = [record.to_json() for record in generate_corpus(2)]
        assert len(first) == len(second)
        assert first != second

    def test_all_three_expected_categories_present(self):
        corpus = generate_corpus(DEFAULT_SEED)
        categories = {record.expected for record in corpus}
        assert categories == {EXPECTED_DETECTED, EXPECTED_BENIGN, EXPECTED_EXEMPT}

    def test_exempt_class_includes_undetected_compromises(self):
        # The acceptance criterion: mutations outside the guarantee are
        # emitted and classified, not hidden.
        corpus = generate_corpus(DEFAULT_SEED)
        exempt_kinds = {
            record.expected_kind
            for record in corpus
            if record.expected == EXPECTED_EXEMPT
        }
        assert OutcomeKind.UNDETECTED_COMPROMISE.value in exempt_kinds

    def test_sweeps_n_2_through_8_and_keyed_schemes(self):
        corpus = generate_corpus(DEFAULT_SEED)
        assert {record.num_variants for record in corpus} >= set(range(2, 9))
        schemes = {record.scheme for record in corpus}
        assert {"uid-xor", "uid-orbit", "keyed-uid-xor", "high-bit", "orbit"} <= schemes
        assert any(scheme.startswith("keyed-") for scheme in schemes)

    def test_trimming_is_class_balanced_and_order_preserving(self):
        full = build_matrix(DEFAULT_SEED)
        trimmed = generate_corpus(DEFAULT_SEED, records=60)
        assert len(trimmed) == 60
        # Trimming keeps every mutation class alive and preserves matrix order.
        assert {r.mutation_class for r in trimmed} == {r.mutation_class for r in full}
        ids = [record.record_id for record in trimmed]
        full_ids = [record.record_id for record in full]
        assert ids == [record_id for record_id in full_ids if record_id in set(ids)]

    def test_record_ids_are_unique(self):
        corpus = build_matrix(DEFAULT_SEED)
        ids = [record.record_id for record in corpus]
        assert len(ids) == len(set(ids))

    def test_oversized_request_returns_whole_matrix(self):
        full = build_matrix(DEFAULT_SEED)
        assert len(generate_corpus(DEFAULT_SEED, records=10**6)) == len(full)


class TestDirectoryFormat:
    def test_write_read_round_trip(self, tmp_path):
        corpus = generate_corpus(DEFAULT_SEED, records=12)
        out = write_corpus(corpus, tmp_path / "corpus", seed=DEFAULT_SEED)
        assert read_corpus(out) == corpus

    def test_write_is_byte_deterministic(self, tmp_path):
        corpus = generate_corpus(DEFAULT_SEED, records=12)
        first = write_corpus(corpus, tmp_path / "a", seed=DEFAULT_SEED)
        second = write_corpus(corpus, tmp_path / "b", seed=DEFAULT_SEED)
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_manifest_is_a_clean_error(self, tmp_path):
        with pytest.raises(CorpusError, match="manifest.json"):
            read_corpus(tmp_path)

    def test_malformed_json_names_file_and_position(self, tmp_path):
        corpus = generate_corpus(DEFAULT_SEED, records=4)
        out = write_corpus(corpus, tmp_path / "corpus", seed=DEFAULT_SEED)
        victim = out / f"{corpus[0].record_id}.json"
        victim.write_text('{"id": broken', encoding="utf-8")
        with pytest.raises(CorpusError, match=r"line 1 column"):
            read_corpus(out)
        with pytest.raises(CorpusError, match=victim.name):
            read_corpus(out)

    def test_invalid_utf8_is_a_clean_error(self, tmp_path):
        corpus = generate_corpus(DEFAULT_SEED, records=4)
        out = write_corpus(corpus, tmp_path / "corpus", seed=DEFAULT_SEED)
        (out / f"{corpus[0].record_id}.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(CorpusError, match="not valid UTF-8"):
            read_corpus(out)

    def test_missing_record_keys_are_a_clean_error(self, tmp_path):
        corpus = generate_corpus(DEFAULT_SEED, records=4)
        out = write_corpus(corpus, tmp_path / "corpus", seed=DEFAULT_SEED)
        victim = out / f"{corpus[0].record_id}.json"
        victim.write_text(json.dumps({"id": "x"}), encoding="utf-8")
        with pytest.raises(CorpusError, match="missing keys"):
            read_corpus(out)

    def test_unknown_expected_category_rejected(self):
        record = generate_corpus(DEFAULT_SEED, records=4)[0]
        data = record.to_dict()
        data["expected"] = "mystery"
        with pytest.raises(CorpusError, match="mystery"):
            CorpusRecord.from_dict(data)


class TestOracle:
    """Hand-checked expectations at the guarantee edge."""

    def test_uid_xor_full_word_zero_is_detected(self):
        masks = uid_masks_for_spec(UID_DIVERSITY_SPEC)
        expectation = remote_uid_overwrite_expectation(masks, uid=0, partial_bytes=4)
        assert expectation.expected == EXPECTED_DETECTED

    def test_bit_flip_commutes_with_every_mask(self):
        for spec in (UID_DIVERSITY_SPEC, uid_orbit_spec(5), keyed_uid_spec(4, seed=7)):
            masks = uid_masks_for_spec(spec)
            expectation = corruption_expectation(
                masks, kind="bit-flip", payload=3, byte_count=1
            )
            assert expectation.expected == EXPECTED_EXEMPT
            assert expectation.kind is OutcomeKind.NO_EFFECT

    def test_sign_bit_flip_is_an_undetected_compromise(self):
        # Decodes to an invalid uid_t: the drop fails EINVAL identically in
        # every variant and the (root) worker stays root.
        masks = uid_masks_for_spec(uid_orbit_spec(3))
        expectation = corruption_expectation(
            masks, kind="bit-flip", payload=31, byte_count=1
        )
        assert expectation.expected == EXPECTED_EXEMPT
        assert expectation.kind is OutcomeKind.UNDETECTED_COMPROMISE

    def test_off_by_one_detected_iff_low_bytes_diverge(self):
        diverging = uid_masks_for_spec(UID_DIVERSITY_SPEC)  # 0 vs 0x7FFFFFFF
        assert annotation_expectation(diverging, length=64).expected == EXPECTED_DETECTED
        high_only = SystemSpec(
            name="high",
            variations=(VariationSpec.of("uid", mask=0x7F000000),),
            transformed=True,
        )
        agreeing = uid_masks_for_spec(high_only)
        expectation = annotation_expectation(agreeing, length=64)
        # Terminator zeroes the low byte of 33 (0x21) -> every variant
        # decodes uid 0: unanimous, undetected, and the worker stays root.
        assert expectation.expected == EXPECTED_EXEMPT
        assert expectation.kind is OutcomeKind.UNDETECTED_COMPROMISE

    def test_short_annotation_is_benign(self):
        masks = uid_masks_for_spec(UID_DIVERSITY_SPEC)
        assert annotation_expectation(masks, length=63).expected == EXPECTED_BENIGN

    def test_full_pointer_injection_detected_under_carving(self):
        scheme = address_scheme_for_spec(ADDRESS_PARTITIONING_SPEC)
        expectation = pointer_expectation(scheme, value=0x00200008)
        assert expectation.expected == EXPECTED_DETECTED

    def test_partial_pointer_overwrite_is_the_exempt_case(self):
        # One low byte, same nominal offset in every variant: every read
        # succeeds identically -- the paper's partial-overwrite blind spot.
        scheme = address_scheme_for_spec(ADDRESS_PARTITIONING_SPEC)
        expectation = pointer_expectation(scheme, value=8, partial_bytes=1)
        assert expectation.expected == EXPECTED_EXEMPT
        assert expectation.kind is OutcomeKind.UNDETECTED_COMPROMISE
        # ...until the offset runs the 16-byte read past the region edge.
        past = pointer_expectation(scheme, value=49, partial_bytes=1)
        assert past.expected == EXPECTED_DETECTED


class TestExecutionAndScorecard:
    @pytest.fixture(scope="class")
    def small_corpus(self):
        return generate_corpus(DEFAULT_SEED, records=60)

    @pytest.fixture(scope="class")
    def virtual_outcomes(self, small_corpus):
        return run_corpus_records(small_corpus, backend="virtual", workers=4)

    def test_virtual_run_matches_every_expectation(self, small_corpus, virtual_outcomes):
        card = evaluate_corpus(small_corpus, virtual_outcomes)
        assert card.all_pass, card.misses
        assert card.total == 60
        assert card.exempt_total > 0
        assert card.exempt_undetected == card.exempt_total
        assert card.exempt_compromises > 0

    def test_process_backend_produces_identical_scorecard(
        self, small_corpus, virtual_outcomes
    ):
        process_outcomes = run_corpus_records(
            small_corpus, backend="process", workers=2
        )
        assert process_outcomes == virtual_outcomes
        virtual_card = evaluate_corpus(small_corpus, virtual_outcomes)
        process_card = evaluate_corpus(small_corpus, process_outcomes)
        assert process_card.to_dict() == virtual_card.to_dict()

    def test_scorecard_reports_misses_verbatim(self, small_corpus, virtual_outcomes):
        # Sabotage one expectation: the scorecard must surface the miss, not
        # absorb it.
        import dataclasses

        wrong_kind = (
            OutcomeKind.DETECTED.value
            if small_corpus[0].expected_kind != OutcomeKind.DETECTED.value
            else OutcomeKind.NO_EFFECT.value
        )
        sabotaged = [
            dataclasses.replace(small_corpus[0], expected_kind=wrong_kind)
        ] + list(small_corpus[1:])
        card = evaluate_corpus(sabotaged, virtual_outcomes)
        assert not card.all_pass
        assert card.passed == card.total - 1
        assert len(card.misses) == 1
        assert card.misses[0].record_id == small_corpus[0].record_id

    def test_length_mismatch_rejected(self, small_corpus, virtual_outcomes):
        with pytest.raises(ValueError, match="outcomes"):
            evaluate_corpus(small_corpus[:-1], virtual_outcomes)

    def test_unknown_backend_rejected(self, small_corpus):
        with pytest.raises(ValueError, match="backend"):
            run_corpus_records(small_corpus[:1], backend="quantum")


class TestExperiment:
    def test_corpus_experiment_smoke_claims_hold(self):
        from repro.api.experiments import experiments

        report = experiments.run(experiments.smoke_spec("corpus"))
        assert report.ok, report.failed_claims
        result = report.result
        assert result.backend == "virtual"
        assert result.scorecard.all_pass

    def test_corpus_dir_parameter_runs_a_written_corpus(self, tmp_path):
        from repro.api.experiments import experiments
        from repro.api.spec import ExperimentSpec

        corpus = generate_corpus(DEFAULT_SEED, records=20)
        out = write_corpus(corpus, tmp_path / "corpus", seed=DEFAULT_SEED)
        report = experiments.run(
            ExperimentSpec(
                name="corpus",
                params={
                    "corpus_dir": str(out),
                    "backend": "virtual",
                    "workers": 2,
                },
            )
        )
        assert report.ok, report.failed_claims
        assert report.result.scorecard.total == 20
