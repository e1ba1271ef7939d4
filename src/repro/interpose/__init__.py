"""Syscall-table interposition: named, data-driven monitoring policies.

See :mod:`repro.interpose.tables` for the model and its public surface:

* :class:`InterpositionTable` / :class:`InterpositionEntry` /
  :class:`PolicyKind` -- the policy vocabulary.
* :data:`CLASSIC_TABLE` (``"classic"``) -- the historical monitoring surface,
  bit-for-bit.
* :data:`WIDE_TABLE` (``"wide"``) -- fork/exec, signal and socket families
  actively monitored.
* :func:`get_table` / :func:`register_table` / :func:`table_names` -- the
  registry; unknown names raise :class:`InterpositionError`, which the CLI
  renders as a clean exit-2 message.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.interpose.tables": (
            "CLASSIC_TABLE",
            "InterpositionEntry",
            "InterpositionError",
            "InterpositionTable",
            "PolicyKind",
            "WIDE_TABLE",
            "get_table",
            "table_names",
        ),
    },
)
