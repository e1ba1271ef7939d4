"""What every registered variation name builds, pinned.

Each name of the default registry is built at N = 2, and at N = 3 where its
factory takes ``num_variants``; a factory that takes ``seed`` gets seed 7.
For each build the record holds the variation's ``name``, ``target_type``
and ``reference``, its ``table1_row()`` and ``identity_variants()``, its
masks (the UID family) or its scheme's ``kind``, ``describe()`` and, for a
keyed scheme, ``secret()``, and a digest of what every variant makes of each
boundary value: ``R_i`` and ``R_i^-1`` (and ``encode``/``decode`` where the
variation has them), the canonical ``setuid``/``setreuid`` requests and the
re-expressed ``getuid`` result.  A keyed build is recorded a second time
after a seeded ``rekey()``.  A build the factory refuses records its error.

The records must equal ``variation_registry_pin.json`` exactly.  To rewrite
the file after a deliberate change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_variation_registry_pin.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.api.registry import VariationParameterError, registry
from repro.api.seeding import sha256
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult
from repro.memory.partition import GLOBAL_EDGE_VALUES, KeyedScheme, boundary_values

PIN = Path(__file__).resolve().parent / "variation_registry_pin.json"

SEED = 7


def _values(variation) -> list[int]:
    """The boundary values of the variation's scheme, or of its masks."""
    if variation.scheme is not None:
        return [entry.value for entry in boundary_values(variation.scheme)]
    masks = list(getattr(variation, "masks", ()))
    return list(dict.fromkeys([*masks, *(value for _, value in GLOBAL_EDGE_VALUES)]))


def _behaviour(variation) -> list:
    table = []
    for index in range(variation.num_variants):
        function = variation.reexpression(index)
        for value in _values(variation):
            row = [
                index,
                value,
                function(value),
                function.invert(value),
                variation.canonicalize_request(
                    index, SyscallRequest(Syscall.SETUID, (value,))
                ).args,
                variation.canonicalize_request(
                    index, SyscallRequest(Syscall.SETREUID, (value, value))
                ).args,
                variation.transform_result(
                    index,
                    SyscallRequest(Syscall.GETUID, ()),
                    SyscallResult.success(value),
                ).value,
            ]
            if variation.target_type == "uid":
                row += [variation.encode(index, value), variation.decode(index, value)]
            table.append(row)
    return table


def _record(variation) -> dict:
    record = {
        "name": variation.name,
        "target_type": variation.target_type,
        "reference": variation.reference,
        "num_variants": variation.num_variants,
        "table1_row": variation.table1_row(),
        "identity_variants": sorted(variation.identity_variants()),
    }
    if variation.target_type == "uid":
        record["masks"] = [f"0x{mask:08X}" for mask in variation.masks]
    scheme = variation.scheme
    if scheme is not None:
        record["scheme"] = {"kind": scheme.kind, "describe": scheme.describe()}
        if isinstance(scheme, KeyedScheme):
            record["scheme"]["secret"] = list(scheme.secret())
    table = _behaviour(variation)
    record["behaviour"] = {
        "rows": len(table),
        "sha256": sha256(json.dumps(table).encode()).hexdigest(),
    }
    return record


def _observe() -> dict[str, dict]:
    builds = {}
    for name in registry.names():
        parameters = registry.get(name).parameters()
        for count in (2, 3) if "num_variants" in parameters else (None,):
            params = {} if count is None else {"num_variants": count}
            if "seed" in parameters:
                params["seed"] = SEED
            key = name if count is None else f"{name}@{count}"
            try:
                variation = registry.create(name, params)
            except VariationParameterError as exc:
                builds[key] = {"refused": str(exc)}
                continue
            builds[key] = _record(variation)
            if isinstance(variation.scheme, KeyedScheme):
                variation.rekey()
                builds[key]["after_rekey"] = _record(variation)
    return builds


def test_every_registered_name_builds_what_it_built():
    observed = _observe()
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        PIN.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    pinned = json.loads(PIN.read_text())
    assert sorted(observed) == sorted(pinned)
    for key in pinned:
        assert observed[key] == pinned[key], key
