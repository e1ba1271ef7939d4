"""Generated scenario corpus and guarantee-boundary fuzzing.

The paper's central claim is a *detection guarantee*: any attack that
corrupts diversified data is caught, for every partition scheme and every N.
This package tests that guarantee empirically at scale:

* :mod:`~repro.corpus.records` -- the scenario-record schema (one JSON file
  per record) and corpus directory (de)serialization;
* :mod:`~repro.corpus.oracle` -- the analytic oracle that derives each
  record's *expected* outcome (detected / benign / guarantee-exempt) from
  the scheme's guarantee, byte for byte;
* :mod:`~repro.corpus.generator` -- the deterministic, seedable generator
  crossing base attacks with guarantee-edge mutations, boundary values, N
  sweeps (2..8) and the full scheme cross-product, keyed families included;
* :mod:`~repro.corpus.runner` -- runs a corpus through the campaign
  machinery on the virtual or process backend;
* :mod:`~repro.corpus.scorecard` -- grades actual against expected outcomes
  per scheme x N x mutation class.

The ``corpus`` experiment (:mod:`repro.analysis.experiments.corpus`) wires
these together and gates the scorecard under ``bench-diff``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.corpus.generator": ("generate_corpus",),
        "repro.corpus.records": (
            "CorpusError",
            "CorpusRecord",
            "EXPECTED_BENIGN",
            "EXPECTED_DETECTED",
            "EXPECTED_EXEMPT",
            "read_corpus",
            "write_corpus",
        ),
        "repro.corpus.runner": ("run_corpus_records",),
    },
)
