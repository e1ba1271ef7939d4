"""Deterministic seed derivation for keyed schemes and randomized runs.

One user-facing ``--seed`` must pin *every* random draw in a run, and it must
pin them identically whether the run executes in-process (virtual backend) or
in forked workers (process backend).  Python's builtin ``hash()`` is
per-process salted and :mod:`random` module-global state is shared mutable
state, so neither can carry reproducibility across a process boundary.
Instead every consumer gets its *own* :class:`random.Random` seeded by a
value derived here: a SHA-256 of the root seed plus a stable label path.
Derivation is pure arithmetic on the payload the backends already ship
(spec name, variation position, variation name), so a seeded campaign is
byte-identical on both backends by construction.

This module is also the one place SHA-256 comes from (the load driver's
response digests use it too).  :mod:`hashlib` loads OpenSSL's libcrypto,
about 3.6 MB of resident memory that no run needs, so the interpreter's lean
builtin module is taken first, as :mod:`random` does for SHA-512.  It is the
same function either way: every seed and digest is identical.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.api.spec import SystemSpec, VariationSpec

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256

#: Separator for label paths; never appears in spec or variation names.
_SEP = "\x1f"


def derive_seed(root: int, *labels: object) -> int:
    """A stable 63-bit child seed from *root* and a label path.

    ``derive_seed(seed, "cell-3", 0, "address-keyed")`` is the same integer
    in every process on every platform -- it is a SHA-256 prefix, not a
    salted ``hash()`` -- and distinct label paths give independent seeds.
    """
    material = _SEP.join([str(int(root)), *(str(label) for label in labels)])
    digest = sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def seeded_spec(spec: SystemSpec, seed: Optional[int]) -> SystemSpec:
    """Pin every seedable variation in *spec* to a seed derived from *seed*.

    A variation is seedable when its registered factory accepts a ``seed``
    keyword (the keyed variations).  Variations whose params already carry an
    explicit ``seed`` are left alone -- the spec author pinned them on
    purpose.  With ``seed=None`` the spec is returned unchanged, preserving
    the fresh-key-per-build deployment semantics.
    """
    if seed is None:
        return spec
    # Imported here: repro.api.registry imports the variation classes, and
    # keeping spec/seeding importable without the registry avoids cycles.
    from repro.api.registry import UnknownVariationError, registry

    rewritten = []
    changed = False
    for position, variation in enumerate(spec.variations):
        try:
            accepts = "seed" in registry.get(variation.name).parameters()
        except UnknownVariationError:
            accepts = False  # the build reports the unknown name, not this rewrite
        params = variation.params_dict()
        if not accepts or "seed" in params:
            rewritten.append(variation)
            continue
        params["seed"] = derive_seed(seed, spec.name, position, variation.name)
        rewritten.append(VariationSpec(name=variation.name, params=params))
        changed = True
    if not changed:
        return spec
    return dataclasses.replace(spec, variations=tuple(rewritten))
