"""What a gateway process imports, and the package exports around it.

A freshly spawned ``serve`` process pays for every module it imports
before its banner, and without a bytecode cache it compiles each one
again.  The package ``__init__`` files therefore resolve their
re-exports on first access, ``serve`` imports no client or fleet
module, and the scheme registry imports only the backend it creates.
Nor does it import what only the parties or the other commands run:
the CLI's other commands, the hybrid KEM, Boneh--Franklin and the KGC,
the request signer, the table printer and the PHR file store.  These
tests pin that import closure and check that every exported name still
resolves.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(REPO_ROOT / "tools"))
try:
    import serve_footprint
finally:
    sys.path.pop(0)

# Modules a single-process gateway never runs.
UNUSED_BY_SERVE = (
    "repro.service.fleet",
    "repro.service.fleet_worker",
    "repro.service.driver",
    "repro.service.wire.client",
    "repro.service.wire.aio_client",
    "repro.cli_commands",
    "repro.hybrid",
    "repro.hybrid.kdf",
    "repro.hybrid.kem",
    "repro.hybrid.symmetric",
    "repro.ibe.boneh_franklin",
    "repro.ibe.kgc",
    "repro.service.auth.signing",
    "repro.bench.report",
    "repro.phr.store",
)
# The most repro modules ``serve --http`` may import before its banner.
SERVE_MODULES_LIMIT = 50


def _serve_imports(*flags: str) -> set[str]:
    """The ``repro`` modules ``serve --http 0 [flags]`` imports before its banner."""
    serve = ("serve", "--http", "0", "--group", "TOY", "--shards", "1", *flags)
    return serve_footprint.spawn(REPO_ROOT / "src", serve, importtime=True)[1]


def test_serve_imports_only_what_it_runs():
    imported = _serve_imports()
    assert "repro.service.wire.aio_server" in imported  # the log is read right
    # --async is accepted and changes nothing.
    assert _serve_imports("--async") == imported
    unused = sorted(
        module
        for module in imported
        if module in UNUSED_BY_SERVE
        or module == "repro.baselines"
        or module.startswith("repro.baselines.")
        or (module.startswith("repro.phr.") and module != "repro.phr.stored")
    )
    assert unused == []
    assert len(imported) <= SERVE_MODULES_LIMIT, sorted(imported)


def _package_names() -> list[str]:
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("package_name", _package_names())
def test_every_exported_name_resolves(package_name):
    package = importlib.import_module(package_name)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_export  # noqa: B018
