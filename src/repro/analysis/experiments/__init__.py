"""One experiment driver per paper table/figure plus the ablation suite.

Each module exposes ``run()``, registered in
:data:`repro.api.experiments.experiments`, which returns a structured result
whose ``to_report()`` method gives the shared
:class:`~repro.api.experiments.ExperimentReport`.  The CLI
(``python -m repro experiment <name>``), JSON scenarios
(``{"scenario": "experiment", ...}``) and the benchmark harness all run
experiments through that registry rather than importing these modules
one-by-one.  Importing the package loads none of them, so running one
experiment imports only that experiment's machinery; import a module by
name (``from repro.analysis.experiments import table3``).

* :mod:`~repro.analysis.experiments.table1` -- reexpression functions.
* :mod:`~repro.analysis.experiments.table2` -- detection system calls.
* :mod:`~repro.analysis.experiments.table3` -- performance of the four
  configurations.
* :mod:`~repro.analysis.experiments.figure1` -- address-space partitioning.
* :mod:`~repro.analysis.experiments.figure2` -- the data-diversity pipeline.
* :mod:`~repro.analysis.experiments.section4` -- transformation effort.
* :mod:`~repro.analysis.experiments.detection` -- the detection matrix.
* :mod:`~repro.analysis.experiments.ablations` -- design-choice ablations.
"""
