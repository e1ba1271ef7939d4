"""Miniature instruction-set substrate for the instruction-tagging variation.

Provides a tiny register machine (:mod:`repro.isa.instructions`,
:mod:`repro.isa.interpreter`) and the per-variant instruction tagging scheme
(:mod:`repro.isa.tagging`) listed in Table 1 of the paper.
"""
