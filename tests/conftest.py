"""Shared fixtures for the test suite."""

from __future__ import annotations

import ast
import gc
from pathlib import Path

import pytest

from repro.core.variations.address import AddressPartitioning
from repro.core.variations.uid import UIDVariation
from repro.kernel.host import build_standard_host
from repro.kernel.libc import Libc


@pytest.fixture
def kernel():
    """A freshly built standard host kernel."""
    return build_standard_host()


@pytest.fixture
def libc():
    """A libc helper instance."""
    return Libc()


@pytest.fixture
def uid_variation():
    """The paper's UID variation (XOR 0x7FFFFFFF)."""
    return UIDVariation()


@pytest.fixture
def address_partitioning():
    """The address-space partitioning variation."""
    return AddressPartitioning()


ROOT = Path(__file__).resolve().parents[1]

#: The directories whose Python files the static guards read.
SOURCE_DIRECTORIES = ("src", "tests", "benchmarks", "examples", "wallbench")


@pytest.fixture(scope="session")
def source_trees() -> dict[str, ast.Module]:
    """Every Python file of :data:`SOURCE_DIRECTORIES`, parsed once a session.

    Keyed by the path relative to the repository root, in POSIX form, each
    directory's files in sorted order.  ``test_option_callers.py``,
    ``test_unused_imports.py`` and ``test_libc_trap_sites.py`` read it; none
    changes a tree.
    """
    # The trees hold some 180k nodes and no cycle; pausing the cyclic
    # collector while they are built halves the parse's time.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return {
            path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
            for directory in SOURCE_DIRECTORIES
            for path in sorted((ROOT / directory).rglob("*.py"))
        }
    finally:
        if enabled:
            gc.enable()
