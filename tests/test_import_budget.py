"""A run imports only the modules it calls.

Each check runs in a fresh interpreter, because this test session has
already imported most of ``repro``.  The benchmark's workloads import what
``wallbench/workloads.py`` imports, then run a small fleet, a corpus slice
and an open-loop ftpd run; none of them may load the process pool, the
campaign layer, the pipeline model, the property checkers or the
instruction-set interpreter.  Plain ``import repro`` loads nothing behind its
re-exports.  Nothing loads :mod:`hashlib`, which maps OpenSSL's libcrypto:
SHA-256 comes from the interpreter's builtin module.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The OpenSSL-backed hashing modules.
HASHLIB = ("hashlib", "_hashlib")

#: Modules that no workload calls into, so none may be imported.
UNUSED_BY_WORKLOADS = (
    "multiprocessing",
    "repro.engine.procpool",
    "repro.api.campaign",
    "repro.attacks.code_injection",
    "repro.core.pipeline",
    "repro.core.properties",
    *HASHLIB,
)


def run_fresh(code: str) -> list[str]:
    """Run *code* in a fresh interpreter; returns the modules it left loaded."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_workloads_load_no_unused_module():
    loaded = run_fresh(
        """
import wallbench.workloads
from repro.api.spec import ADDRESS_UID_SPEC, FleetSpec, WorkloadSpec, uid_orbit_spec
from repro.apps.clients.webbench import drive_engine
from repro.corpus.generator import generate_corpus
from repro.corpus.runner import run_corpus_records
from repro.load.driver import run_loadtest

fleet = FleetSpec(
    system=ADDRESS_UID_SPEC, num_sessions=2, workload=WorkloadSpec(total_requests=8)
)
assert drive_engine(fleet).requests_completed == 8
assert len(run_corpus_records(generate_corpus(20080625, records=6), workers=2)) == 6
result = run_loadtest(
    uid_orbit_spec(3),
    app="ftpd",
    arrival="bursty",
    rate=15.0,
    requests=6,
    admission="token-bucket",
    admission_params={"rate": 18.75, "burst": 4.0},
    seed=7,
    attacks=("uid-overwrite",),
    migrate_after=3,
)
assert result.completed > 0
"""
    )
    unexpected = [
        name
        for name in loaded
        if name in UNUSED_BY_WORKLOADS or name == "repro.isa" or name.startswith("repro.isa.")
    ]
    assert unexpected == []


def test_import_repro_loads_only_the_package_and_its_version():
    loaded = run_fresh("import repro")
    assert [name for name in loaded if name.startswith("repro")] == ["repro", "repro._version"]
    assert set(HASHLIB).isdisjoint(loaded)


def test_the_campaign_layer_loads_no_process_pool():
    # The pool is named only in an annotation; the process backend imports it
    # when a run asks for it.
    loaded = run_fresh("import repro.api.campaign")
    assert {"multiprocessing", "repro.engine.procpool"}.isdisjoint(loaded)


def test_the_attacker_loads_no_process_pool():
    # The entropy experiment's trials run on the virtual backend by default.
    loaded = run_fresh("import repro.security.attacker")
    assert {"multiprocessing", "repro.engine.procpool"}.isdisjoint(loaded)


@pytest.mark.parametrize(
    "arguments", ["examples/scenarios/loadtest.json", "examples/scenarios/campaign.json --seed 7"]
)
def test_example_scenario_runs_without_hashlib(arguments):
    # Both run on the virtual backend, their default.
    loaded = run_fresh(
        f"""
from repro.api.cli import main
assert main(["run", *{arguments.split()!r}]) == 0
"""
    )
    assert "repro.api.seeding" in loaded
    assert set(HASHLIB).isdisjoint(loaded)


# -- one SHA-256, whichever module provides it ------------------------------


def test_builtin_sha256_matches_hashlib():
    import hashlib

    from repro.api.seeding import sha256

    for data in (b"", bytes(range(256)) * 3):
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    lean, reference = sha256(), hashlib.sha256()
    for chunk in (b"a", b"b" * 63, b"", b"c" * 65, bytes(200)):
        lean.update(chunk)
        reference.update(chunk)
        assert lean.copy().digest() == reference.copy().digest()
    assert lean.hexdigest() == reference.hexdigest()


_SEEDS_AND_DIGESTS = """
from repro.api.seeding import derive_seed
from repro.api.spec import uid_orbit_spec
from repro.load.driver import run_loadtest

result = run_loadtest(uid_orbit_spec(2), app="ftpd", requests=4, seed=7)
values = [
    derive_seed(20080625),
    derive_seed(7, "cell-3", 0, "uid-keyed"),
    result.response_digest,
    result.secret_digest,
]
"""


def test_hashlib_fallback_gives_the_same_seeds_and_digests():
    namespace = {}
    exec(_SEEDS_AND_DIGESTS, namespace)
    # A None entry in sys.modules makes importing that module fail, as on an
    # interpreter built without the builtin SHA-2 modules.
    run_fresh(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        + _SEEDS_AND_DIGESTS
        + f"""
import hashlib
from repro.api import seeding
assert seeding.sha256 is hashlib.sha256
assert values == {namespace["values"]!r}, values
"""
    )


# -- one import path per name ----------------------------------------------

SRC = ROOT / "src"

#: Every package that re-exports, all through ``repro._lazy_exports``.
LAZY_PACKAGES = (
    "repro",
    "repro.engine",
    "repro.core",
    "repro.core.variations",
    "repro.load",
    "repro.corpus",
    "repro.interpose",
    "repro.security",
    "repro.apps.ftpd",
)


def _module_path(name: str) -> Path:
    path = SRC.joinpath(*name.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _is_module(name: str) -> bool:
    return _module_path(name).exists()


def _import_time_imports(name: str) -> set[str]:
    """The ``repro`` modules that *name*'s module-level import statements name."""
    found = set()
    for node in ast.parse(_module_path(name).read_text()).body:
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
            found.update(
                f"{node.module}.{alias.name}"
                for alias in node.names
                if _is_module(f"{node.module}.{alias.name}")
            )
    return {module for module in found if module.split(".")[0] == "repro"}


def _expected_closure(name: str) -> set[str]:
    """*name*, what it imports (transitively), and the packages of each.

    A package's own imports are not followed: a package loads nothing but
    ``repro``, and the root loads only ``repro._version``.
    """
    expected = {"repro", "repro._version"}
    pending = [name]
    while pending:
        module = pending.pop()
        if module in expected:
            continue
        expected.add(module)
        parts = module.split(".")
        expected.update(".".join(parts[:end]) for end in range(1, len(parts)))
        if _module_path(module).name != "__init__.py":
            pending.extend(_import_time_imports(module))
    return expected


@pytest.mark.parametrize(
    "module",
    [
        "repro.kernel.syscalls",
        "repro.corpus.records",
        "repro.load.arrivals",
        "repro.isa.instructions",
        "repro.transform.lexer",
    ],
)
def test_a_leaf_module_loads_only_what_it_imports(module):
    loaded = run_fresh(f"import {module}")
    expected = _expected_closure(module)
    assert sorted(name for name in loaded if name.startswith("repro")) == sorted(expected)


def test_a_subpackage_holds_its_docstring_and_at_most_one_lazy_export_call():
    lazy = {"repro"}  # The root defines the helper; the fresh imports check it.
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        if package == "repro":
            continue
        docstring, *rest = ast.parse(init.read_text()).body
        assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant), package
        if not rest:
            continue
        assert len(rest) == 2, package
        helper, call = rest
        assert ast.unparse(helper) == "from repro import _lazy_exports", package
        assert ast.unparse(call).startswith(
            "__getattr__, __dir__, __all__ = _lazy_exports(__name__, {"
        ), package
        names = [name for names in ast.literal_eval(call.value.args[1]).values() for name in names]
        assert [name for name in names if _is_module(f"{package}.{name}")] == [], package
        lazy.add(package)
    assert lazy == set(LAZY_PACKAGES)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves_to_its_defining_object(package):
    run_fresh(
        f"""
import importlib, sys, types

package = importlib.import_module({package!r})
listing = dir(package)
for name in package.__all__:
    value = getattr(package, name)
    assert not isinstance(value, types.ModuleType), name
    assert name in listing, name
    # The same object under the same name in a (non-package) defining module.
    assert any(
        getattr(module, name, None) is value
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.") and not hasattr(module, "__path__")
    ), name
namespace = {{}}
exec("from {package} import *", namespace)
assert all(namespace[name] is getattr(package, name) for name in package.__all__)
try:
    package.no_such_export
except AttributeError as exc:
    assert repr({package!r}) in str(exc) and "no_such_export" in str(exc), exc
else:
    raise AssertionError("an unknown name resolved")
"""
    )


# ``repro.registry`` and ``repro.experiments`` share their names with the
# modules that define them, one package down.
_ROOT_OBJECTS = """
assert not isinstance(repro.registry, types.ModuleType)
assert not isinstance(repro.experiments, types.ModuleType)
"""


def test_colliding_names_return_the_object_when_the_submodule_comes_first():
    run_fresh(
        "import types\nimport repro.api.registry\nimport repro.api.experiments\nimport repro\n"
        + _ROOT_OBJECTS
    )


def test_colliding_names_return_the_object_when_the_package_comes_first():
    run_fresh(
        "import types\nimport repro\n"
        + "registry, experiments = repro.registry, repro.experiments\n"
        + _ROOT_OBJECTS
        + "import repro.api.registry\nimport repro.api.experiments\n"
        + _ROOT_OBJECTS
        + "assert repro.registry is registry and repro.experiments is experiments\n"
    )


def test_process_backend_runs_after_a_lazy_engine_import():
    loaded = run_fresh(
        """
import functools
import repro.engine as engine
from repro.corpus.generator import generate_corpus
from repro.corpus.runner import prepare_record

records = generate_corpus(20080625, records=2)
jobs = [engine.CampaignJob(r.record_id, functools.partial(prepare_record, r)) for r in records]
result = engine.run_jobs(jobs, backend="process", workers=2)
assert result.backend == "process"
assert [job.name for job in result.jobs] == [r.record_id for r in records]
assert all(job.state is not None for job in result.jobs)
"""
    )
    assert "repro.engine.procpool" in loaded
