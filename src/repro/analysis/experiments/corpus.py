"""Experiment: the generated scenario corpus against its analytic oracle.

The detection matrix (PR 3) asserts the paper's guarantee at a handful of
hand-written attack x configuration cells.  This experiment pressure-tests
the *boundary* of that guarantee instead: a seeded generator emits hundreds
of scenario records -- base attacks crossed with bit-granular payload
mutations, off-by-one overwrites, boundary uids and addresses (sign bit,
partition edges, ``2**31 - 1``), N swept over 2..8 and the scheme
cross-product including the keyed families -- and every record carries the
outcome the scheme's analytic guarantee *derives* for it (detected, benign,
or guarantee-exempt).  The whole corpus then runs through the campaign
machinery and is graded record by record.

The exempt class is the point, not a blemish: bit flips commute with XOR
re-expression, and a partial pointer overwrite can keep every variant inside
its partition at the same nominal offset.  Those mutations are *designed* to
evade detection, and the scorecard requires them to evade it -- an exempt
record that alarms is as much a miss as a guaranteed record that does not.

Claims: every record matches its expectation; the exempt class demonstrably
escapes (with at least one outright undetected compromise); and the corpus
itself regenerates byte-identically from its seed.  The corpus runs on one
campaign backend; ``tests/test_job_parity.py`` checks that a corpus record
gives the same result on either backend.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.api.experiments import ExperimentReport, ReportKeyValues, ReportTable
from repro.corpus.generator import DEFAULT_RECORDS, generate_corpus
from repro.corpus.records import CorpusRecord, read_corpus
from repro.corpus.runner import run_corpus_records
from repro.corpus.scorecard import Scorecard, evaluate_corpus

#: Default root seed: the paper's publication date (DSN 2008, June 25).
DEFAULT_SEED = 20080625


@dataclasses.dataclass
class CorpusResult:
    """The graded corpus: its scorecard plus determinism evidence."""

    seed: int
    records: list[CorpusRecord]
    backend: str
    scorecard: Scorecard
    regenerate_identical: bool
    corpus_dir: str = ""

    def mutation_classes(self) -> list[str]:
        return sorted({record.mutation_class for record in self.records})

    def claim_results(self) -> dict[str, bool]:
        """The guarantee boundary, graded."""
        card = self.scorecard
        return {
            "every scenario outcome matches its analytic expectation": card.all_pass,
            "guarantee-exempt mutations escape detection as predicted": (
                card.exempt_total > 0
                and card.exempt_undetected == card.exempt_total
            ),
            "at least one exempt record is an undetected compromise": (
                card.exempt_compromises > 0
            ),
            "the corpus regenerates byte-identically from its seed": (
                self.regenerate_identical
            ),
        }

    def to_report(self) -> ExperimentReport:
        """The graded corpus as a shared experiment report."""
        card = self.scorecard
        summary = ReportKeyValues(
            title="Corpus",
            pairs=(
                ("seed", str(self.seed)),
                ("records", str(card.total)),
                ("source", self.corpus_dir or f"generated (seed {self.seed})"),
                ("backend", self.backend),
                ("mutation classes", str(len(self.mutation_classes()))),
                ("passed", f"{card.passed}/{card.total}"),
                (
                    "guarantee-exempt",
                    f"{card.exempt_total} records, "
                    f"{card.exempt_undetected} undetected, "
                    f"{card.exempt_compromises} outright compromises",
                ),
            ),
        )
        rows = ReportTable(
            title="Scorecard: scheme x N x mutation class",
            headers=("scheme", "N", "mutation class", "expected", "total", "passed"),
            rows=tuple(
                (
                    row.scheme,
                    str(row.num_variants),
                    row.mutation_class,
                    row.expected,
                    str(row.total),
                    str(row.passed),
                )
                for row in card.rows
            ),
        )
        sections: list = [summary, rows]
        if card.misses:
            sections.append(
                ReportTable(
                    title="Guarantee-edge misses",
                    headers=("record", "scheme", "expected kind", "actual kind"),
                    rows=tuple(
                        (m.record_id, m.scheme, m.expected_kind, m.actual_kind)
                        for m in card.misses
                    ),
                )
            )
        telemetry = {
            "records": card.total,
            "cells": len(card.rows),
            "exempt_compromises": card.exempt_compromises,
        }
        return ExperimentReport(
            title="Scenario corpus vs the analytic detection guarantee",
            sections=tuple(sections),
            claims=self.claim_results(),
            telemetry=telemetry,
            result=self,
        )


def run(
    *,
    records: int = DEFAULT_RECORDS,
    seed: int = DEFAULT_SEED,
    backend: str = "virtual",
    workers: int = 8,
    corpus_dir: str = "",
) -> CorpusResult:
    """Generate (or load) the corpus, run it on *backend*, grade it.

    ``corpus_dir`` loads a previously written corpus instead of generating
    one (its manifest seed wins over *seed*).
    """
    if corpus_dir:
        corpus = read_corpus(Path(corpus_dir))
        regenerate_identical = True  # determinism is a generator property
    else:
        corpus = generate_corpus(seed, records=records)
        replay = generate_corpus(seed, records=records)
        regenerate_identical = [r.to_json() for r in corpus] == [
            r.to_json() for r in replay
        ]
    scorecard = evaluate_corpus(
        corpus, run_corpus_records(corpus, backend=backend, workers=workers)
    )
    return CorpusResult(
        seed=seed,
        records=corpus,
        backend=backend,
        scorecard=scorecard,
        regenerate_identical=regenerate_identical,
        corpus_dir=corpus_dir,
    )
