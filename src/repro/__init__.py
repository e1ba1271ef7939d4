"""repro: reproduction of "Security through Redundant Data Diversity" (DSN 2008).

The package is organised as the paper's system is layered:

* :mod:`repro.kernel` -- simulated Unix kernel substrate (processes,
  credentials, VFS, descriptors, network, syscalls, detection calls).
* :mod:`repro.memory` -- simulated address spaces and the memory-corruption
  primitives attacks operate with.
* :mod:`repro.isa` -- miniature instruction set for the tagging variation.
* :mod:`repro.core` -- the N-variant framework with data diversity:
  reexpression functions, variations, lockstep engine, monitor, wrappers.
* :mod:`repro.engine` -- the concurrent multi-session execution engine:
  resumable lockstep sessions and the cooperative round-robin scheduler.
* :mod:`repro.api` -- the declarative scenario layer: JSON-round-trippable
  system/fleet specs, the variation registry, the builders that are the only
  supported construction path, and the unified campaign runner.
* :mod:`repro.transform` -- mini-C source-to-source UID transformation
  (Section 3.3 / Section 4 change accounting).
* :mod:`repro.apps` -- the mini Apache case-study server and the
  WebBench-style workload generator.
* :mod:`repro.attacks` -- the attack library (campaigns run through
  :func:`repro.api.campaign.run_campaign`).
* :mod:`repro.analysis` -- virtual-time performance model, metrics, and one
  registered experiment per paper table/figure (see
  :mod:`repro.api.experiments`).

The documented import path for the scenario API is this top-level package::

    from repro import SystemSpec, FleetSpec, build_session, build_engine, registry

``python -m repro run scenario.json`` drives the same API from the shell.

A name's import path is the module that defines it.  A package re-exports a
name only where callers import it through the package, and always lazily:
``import repro`` loads no other module, and a name's defining module is
imported when the name is first used (see ``_lazy_exports``, which
``repro.engine``, ``repro.core``, ``repro.core.variations``, ``repro.load``,
``repro.corpus``, ``repro.interpose``, ``repro.security`` and
``repro.apps.ftpd`` share).
"""

import importlib
import sys
from typing import Any, Callable, Mapping

from repro._version import __version__


def _lazy_exports(
    package: str, sources: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """PEP 562 lazy re-exports: a package's ``__getattr__``, ``__dir__`` and names.

    *sources* maps each defining module to the names *package* re-exports
    from it.  A name's module is imported on the name's first access, and the
    value is then cached in the package's globals, so importing a package
    loads none of the modules behind its re-exports.  A package re-exports
    no name that is also one of its submodules' names: once the import
    system binds the submodule under that name, ``__getattr__`` is never
    consulted.
    """
    origins = {name: module for module, names in sources.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = origins[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origins})

    return __getattr__, __dir__, list(origins)


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.api.builders": ("build_engine", "build_session", "build_variations"),
        "repro.api.campaign": ("run_attack", "run_campaign"),
        "repro.api.experiments": ("experiments",),
        "repro.api.registry": ("UnknownVariationError", "VariationParameterError", "registry"),
        "repro.api.spec": (
            "ADDRESS_ORBIT_3_SPEC",
            "ADDRESS_PARTITIONING_SPEC",
            "ADDRESS_UID_SPEC",
            "ExperimentSpec",
            "FleetSpec",
            "SINGLE_PROCESS_SPEC",
            "STANDARD_SYSTEM_SPECS",
            "SystemSpec",
            "UID_DIVERSITY_SPEC",
            "UID_ORBIT_3_SPEC",
            "VariationSpec",
            "WorkloadSpec",
        ),
    },
)
