"""Benchmark: every registered experiment, generically, through the registry.

This replaces the eight hand-written ``bench_<experiment>.py`` modules: the
harness parametrizes over :data:`repro.api.experiments.experiments`, so a new
registered experiment is benchmarked (and its claims asserted) with zero new
benchmark code.  Per-experiment structural assertions -- the checks that go
beyond "every claim holds", e.g. Table 3's overhead directions -- live in
:data:`EXTRA_CHECKS`, keyed by registry name and fed the experiment module's
underlying structured result.

Each run persists ``benchmarks/results/BENCH_<name>.json`` (the report's
schema-stable JSON plus wall-clock timing), so the reproduction's output and
performance trajectory are diffable across PRs.
"""

import pytest

from conftest import emit, write_results

from repro.api.experiments import experiments
from repro.api.spec import ExperimentSpec

#: Parameter overrides for the benchmarked run (default: the registry entry's
#: own defaults).  The detection matrix runs on eight campaign workers, as
#: the experiment module documents.
BENCH_PARAMS = {
    "detection": {"workers": 8},
}


def _check_table1(result) -> None:
    assert result.to_report().failed_claims == []
    assert len(result.rows) == 4
    uid_row = next(row for row in result.rows if row.target_type == "uid")
    assert "7FFFFFFF" in uid_row.reexpression.upper()


def _check_table2(result) -> None:
    assert result.to_report().failed_claims == []
    assert len(result.checks) == 8


def _check_table3(result) -> None:
    shape = result.shape_holds()
    assert all(shape.values()), shape
    for configuration in result.configurations:
        assert configuration.measurement.completed_ok, configuration.key
    # Quantitative overhead directions match the paper's Table 3: redundant
    # execution costs something unsaturated but far less than 2x, saturated
    # throughput roughly halves, and the UID variation's increment is small.
    unsat_drop = result.overhead_vs_baseline("3-2variant-address", saturated=False)
    assert -30.0 < unsat_drop < -1.0
    sat_drop = result.overhead_vs_baseline("3-2variant-address", saturated=True)
    assert -65.0 < sat_drop < -40.0
    assert -10.0 < result.uid_overhead_vs_2variant(saturated=True) <= 0.0
    assert -10.0 < result.uid_overhead_vs_2variant(saturated=False) <= 0.0


def _check_figure1(result) -> None:
    assert result.reproduces_figure
    assert result.equivalence.holds
    # The same attacks succeed (or at worst crash) against a single process;
    # under partitioning every injection is detected.
    assert any(outcome.goal_reached for outcome in result.single_outcomes)
    assert all(outcome.detected for outcome in result.nvariant_outcomes)


def _check_figure2(result) -> None:
    assert result.reproduces_figure
    # Per-variant representations differ while decoded values agree; an
    # injected concrete value decodes differently and is detected.
    assert result.variant_passwd_uids[0] != result.variant_passwd_uids[1]
    assert result.benign_decoded[0] == result.benign_decoded[1]
    assert result.attack_decoded[0] != result.attack_decoded[1]
    assert result.attack_detected


def _check_section4(result) -> None:
    from repro.transform.report import ChangeCategory

    report = result.report
    for category in (
        ChangeCategory.CONSTANT,
        ChangeCategory.UID_VALUE,
        ChangeCategory.COMPARISON,
        ChangeCategory.COND_CHK,
    ):
        assert report.count(category) > 0, category
    assert report.total_paper_categories >= 40
    assert "cc_eq" in result.transformed_source
    assert "uid_value" in result.transformed_source
    assert "cond_chk" in result.transformed_source
    assert "0x7fffffff" in result.transformed_source.lower()


def _check_detection(result) -> None:
    claims = result.claim_results()
    assert all(claims.values()), claims


def _check_nscaling(result) -> None:
    counts = [point.num_variants for point in result.points]
    assert counts == sorted(counts) and counts[0] == 2 and counts[-1] >= 3
    # Detection survives every swept N on both orbit families, and the
    # lockstep cost curve is strictly monotone in N.
    assert all(point.uid_guarantee_holds for point in result.points)
    assert all(point.address_guarantee_holds for point in result.points)
    syscalls = [point.lockstep_syscalls for point in result.points]
    assert all(a < b for a, b in zip(syscalls, syscalls[1:]))


def _check_entropy(result) -> None:
    claims = result.claim_results()
    assert all(claims.values()), claims
    # The curve grows with key entropy at every N and tracks the analytic
    # expectation within sampling error; nobody ever compromises undetected.
    for n, points in result.curves().items():
        bits = [point.key_bits for point in points]
        assert bits == sorted(bits), n
        means = [point.mean_probes for point in points]
        assert all(a < b for a, b in zip(means, means[1:])), (n, means)
        for point in points:
            assert point.mean_probes < 3 * point.analytic_probes + 2
            assert point.trace.successes == 0
    assert result.replay_identical
    assert all(result.uid_guarantee.values())


def _check_corpus(result) -> None:
    claims = result.claim_results()
    assert all(claims.values()), claims
    card = result.scorecard
    # The corpus is the full default matrix: hundreds of records, every
    # mutation class represented, and the exempt class both escapes and
    # contains outright compromises (the outside-the-guarantee evidence).
    assert card.total >= 200
    assert card.passed == card.total and not card.misses
    assert len(result.mutation_classes()) >= 8
    assert card.exempt_total > 0
    assert card.exempt_undetected == card.exempt_total
    assert card.exempt_compromises > 0


def _check_apps(result) -> None:
    claims = result.claim_results()
    assert all(claims.values()), claims
    # The matrices agree across apps cell-for-cell, and the alarm telemetry
    # names the interposed syscalls that raised the alarms.
    assert result.matrix("httpd") == result.matrix("ftpd")
    assert result.alarm_breakdown
    assert all(count > 0 for count in result.alarm_breakdown.values())
    for measurements in result.measurements.values():
        assert [m.num_variants for m in measurements] == [1, 2, 3]


def _check_ablations(result) -> None:
    latency = result.detection_latency
    assert latency.with_detection_calls is not None
    assert latency.without_detection_calls is not None
    assert latency.with_detection_calls < latency.without_detection_calls
    mask = result.mask
    assert mask.paper_mask_serves_normally
    assert mask.full_flip_breaks_normal_operation
    assert mask.paper_mask_high_bit_blind_spot
    assert mask.full_flip_closes_blind_spot
    external = result.external_data
    assert external.unshared_files_detects_injection
    assert not external.in_process_reexpression_detects_injection


def _check_loadtest(result) -> None:
    claims = result.claim_results()
    assert all(claims.values()), claims
    # The migration pair actually moved; the top-rate cells genuinely shed
    # while the accept-all control absorbed everything into its tail.
    assert result.migration_moved["migrated"]
    assert result.migration_base["response_digest"] == result.migration_moved["response_digest"]
    top = result.multipliers[-1]
    for spec in (f"{n}-variant-uid-orbit" for n in result.variant_counts):
        accept = result.cell(spec, "accept-all", top)
        bounded = result.cell(spec, "bounded-newest", top)
        assert accept["shed"] == 0 and bounded["shed"] > 0
        assert accept["queue_high_water"] > bounded["queue_high_water"]
        assert bounded["latency"]["p99"] <= accept["latency"]["p99"]
        # Sojourn percentiles are real measurements, not sentinel nulls.
        assert accept["latency"]["p999"] is not None


#: Structural assertions on the underlying result, by experiment name.  An
#: experiment without an entry is still run and gated on its claims.
EXTRA_CHECKS = {
    "loadtest": _check_loadtest,
    "apps": _check_apps,
    "table1": _check_table1,
    "table2": _check_table2,
    "table3": _check_table3,
    "figure1": _check_figure1,
    "figure2": _check_figure2,
    "section4": _check_section4,
    "detection": _check_detection,
    "nscaling": _check_nscaling,
    "ablations": _check_ablations,
    "entropy": _check_entropy,
    "corpus": _check_corpus,
}


def _spec(name: str) -> ExperimentSpec:
    return ExperimentSpec(name=name, params=BENCH_PARAMS.get(name, {}))


@pytest.mark.parametrize("name", experiments.names())
def test_experiment(name, benchmark):
    """Run one registered experiment; every claim must hold."""
    report = benchmark.pedantic(
        experiments.run, args=(_spec(name),), rounds=1, iterations=1
    )
    emit(report.title, report.format())
    assert report.ok, report.failed_claims
    check = EXTRA_CHECKS.get(name)
    if check is not None:
        check(report.result)
    # The persisted result must be deterministic so committed BENCH_*.json
    # files only diff when the reproduction's output actually changes.
    payload = report.to_dict()
    payload["telemetry"].pop("wall_seconds", None)
    write_results(name, payload)
