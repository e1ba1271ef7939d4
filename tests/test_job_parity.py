"""Backend parity by construction: one job list, run on both backends.

Every kind of campaign job is a name plus a picklable preparer, so the same
list runs on the in-process virtual scheduler and on the forked worker
pool.  For each kind -- attack cell, corpus record, probe plan, loadtest
cell -- these tests build one job list the way its call site does and check
that both backends give every job the same value, terminal state, rounds
and virtual elapsed time.
"""

import functools
import multiprocessing

from repro.analysis.experiments.apps import diversity_spec
from repro.api.campaign import prepare_attack, standard_attacks
from repro.api.spec import (
    ADDRESS_ORBIT_3_SPEC,
    SINGLE_PROCESS_SPEC,
    UID_DIVERSITY_SPEC,
    uid_orbit_spec,
)
from repro.corpus.generator import generate_corpus
from repro.corpus.runner import prepare_record
from repro.engine.campaign import CampaignJob, run_jobs
from repro.engine.procpool import ProcessWorkerPool
from repro.load.driver import LoadtestCell
from repro.security.attacker import ExhaustiveSweepAttacker, RandomProbingAttacker, plan_trial
from repro.security.probes import prepare_probe_cell

SEED = 20080625


def _observed(execution):
    return [(job.value, job.state, job.rounds, job.virtual_elapsed) for job in execution.jobs]


def _assert_parity(jobs, **process_options):
    virtual = run_jobs(jobs, workers=2)
    process = run_jobs(jobs, backend="process", workers=2, **process_options)
    assert process.backend == "process"
    assert all(job.state is not None for job in virtual.jobs)
    assert _observed(process) == _observed(virtual)


def _attack_jobs(app="httpd"):
    # diversity_spec(2) is the apps experiment's fd+address+uid stack.
    specs = (SINGLE_PROCESS_SPEC, UID_DIVERSITY_SPEC, ADDRESS_ORBIT_3_SPEC, diversity_spec(2))
    return [
        CampaignJob(f"{attack.name}@{spec.name}", functools.partial(prepare_attack, attack, spec))
        for attack in standard_attacks(app)[::3]
        for spec in specs
    ]


def test_attack_cells_match_across_backends():
    _assert_parity(_attack_jobs("httpd") + _attack_jobs("ftpd"))


def test_attack_cells_match_under_spawned_workers():
    """Nothing closure-shaped crosses the boundary: a spawned worker, which
    inherits no parent state, builds the same cells."""
    jobs = _attack_jobs()[:4]
    with ProcessWorkerPool(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        _assert_parity(jobs, pool=pool)


def test_corpus_records_match_across_backends():
    records = generate_corpus(SEED, records=12)
    jobs = [
        CampaignJob(record.record_id, functools.partial(prepare_record, record))
        for record in records
    ]
    _assert_parity(jobs)


def test_probe_plans_match_across_backends():
    plans = [
        plan_trial(strategy, num_variants=n, key_bits=4, seed=SEED + n)
        for strategy in (ExhaustiveSweepAttacker(), RandomProbingAttacker(max_probes=12))
        for n in (2, 3)
    ]
    jobs = [
        CampaignJob(
            plan.name,
            functools.partial(
                prepare_probe_cell,
                plan.spec,
                plan.addresses,
                name=plan.name,
                strategy=plan.strategy,
                key_bits=plan.key_bits,
            ),
        )
        for plan in plans
    ]
    _assert_parity(jobs)


def test_loadtest_cells_match_across_backends():
    cells = [
        dict(spec=uid_orbit_spec(n), rate=rate, requests=6, seed=SEED, name=f"cell-{n}-{rate:g}")
        for n in (2, 3)
        for rate in (8.0, 40.0)
    ]
    cells.append(
        dict(
            spec=uid_orbit_spec(2),
            requests=4,
            seed=SEED,
            attacks=("uid-overwrite",),
            admission="bounded-queue",
            admission_params={"capacity": 2},
            name="cell-attacked",
        )
    )
    # One overloaded cell per shedding policy the loadtest experiment sweeps:
    # each sheds, and drop-oldest also evicts.
    shedding = {
        "oldest": ("bounded-queue", {"capacity": 1, "drop": "oldest"}),
        "newest": ("bounded-queue", {"capacity": 1, "drop": "newest"}),
        "bucket": ("token-bucket", {"rate": 8.0, "burst": 1.0}),
    }
    cells.extend(
        dict(
            spec=uid_orbit_spec(2),
            rate=40.0,
            requests=6,
            seed=SEED,
            admission=kind,
            admission_params=params,
            name=f"cell-{label}",
        )
        for label, (kind, params) in shedding.items()
    )
    jobs = [
        CampaignJob(kwargs["name"], functools.partial(LoadtestCell, kwargs)) for kwargs in cells
    ]
    _assert_parity(jobs)
