"""What a gateway process imports, and the package exports around it.

A freshly spawned ``serve`` process pays for every module it imports
before its banner, and without a bytecode cache it compiles each one
again.  The package ``__init__`` files therefore resolve their
re-exports on first access, ``serve`` imports no client or fleet
module, and the scheme registry imports only the backend it creates.
These tests pin that import closure and check that every exported name
still resolves.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

# Modules a single-process gateway never runs.
UNUSED_BY_SERVE = (
    "repro.service.fleet",
    "repro.service.driver",
    "repro.service.wire.client",
    "repro.service.wire.aio_client",
)

_IMPORTTIME_LINE = re.compile(r"import time:\s+\d+\s+\|\s+\d+\s+\|\s*(\S+)")


def _serve_imports(log_path: Path, *flags: str) -> set[str]:
    """The ``repro`` modules ``serve --http 0 [flags]`` imports before its banner."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-X", "importtime", "-m", "repro.cli", "serve",
        "--http", "0", "--group", "TOY", "--shards", "1", *flags,
    ]
    with log_path.open("w") as log:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, env=env, text=True
        )
        try:
            ready, _, _ = select.select([process.stdout], [], [], 60)
            banner = process.stdout.readline() if ready else ""
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
    assert "gateway listening on mux://" in banner, log_path.read_text()[-2000:]
    imported = set()
    for line in log_path.read_text().splitlines():
        match = _IMPORTTIME_LINE.match(line)
        if match and match.group(1).startswith("repro"):
            imported.add(match.group(1))
    return imported


def test_serve_imports_only_what_it_runs(tmp_path):
    imported = _serve_imports(tmp_path / "importtime.log")
    assert "repro.service.wire.aio_server" in imported  # the log is read right
    # --async is accepted and changes nothing.
    assert _serve_imports(tmp_path / "importtime-async.log", "--async") == imported
    unused = sorted(
        module
        for module in imported
        if module in UNUSED_BY_SERVE
        or module == "repro.baselines"
        or module.startswith("repro.baselines.")
        or (module.startswith("repro.phr.") and module != "repro.phr.store")
    )
    assert unused == []


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
