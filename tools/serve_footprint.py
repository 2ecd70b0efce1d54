"""Start-up footprint of a ``serve`` process: its memory at the banner,
the time to the banner, and the ``repro`` modules it imports.

    python tools/serve_footprint.py                  # this tree's src
    python tools/serve_footprint.py OLD/src NEW/src  # two trees, alternating

Each of the ``SPAWNS`` spawns per tree runs the repo benchmark's server
command, ``python -m repro.cli serve --http 0 --async --group SS256
--shards 4 --state-dir <fresh temporary dir>``, with the given ``src``
directory on ``PYTHONPATH`` and its parent as the working directory.
As soon as the banner is printed it reads ``VmHWM`` (peak resident set,
the benchmark's ``server_rss_mb``) and ``RssAnon`` from
``/proc/<pid>/status``, then stops the server.  Given several trees, the
spawns alternate between them, so drift on the host falls on each
alike.  One more spawn per tree runs under ``-X importtime`` and lists
the modules imported before the banner; it is not measured.
``tests/test_serving_imports.py`` reads a server's imports through
:func:`spawn` too.

The environment is passed on unchanged.  With
``PYTHONDONTWRITEBYTECODE=1`` and no bytecode cache, every spawn
compiles each module it imports from source, and the numbers include
that.  Needs Linux (``/proc``).
"""

from __future__ import annotations

import argparse
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SERVE = ("serve", "--http", "0", "--async", "--group", "SS256", "--shards", "4")
SPAWNS = 8  # measured spawns per tree
BANNER = "gateway listening on mux://"
_IMPORTTIME_LINE = re.compile(r"import time:\s+\d+\s+\|\s+\d+\s+\|\s*(\S+)")


def _status_mb(pid: int) -> dict[str, float]:
    """``VmHWM`` and ``RssAnon`` of ``pid``, in MB."""
    values = {}
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            name, _, rest = line.partition(":")
            if name in ("VmHWM", "RssAnon"):
                values[name] = int(rest.split()[0]) / 1024
    return values


def spawn(
    src: Path, serve: tuple[str, ...] = SERVE, importtime: bool = False
) -> tuple[dict[str, float], set[str]]:
    """Start ``repro.cli`` with ``serve`` arguments and a fresh state dir
    from ``src``; its banner-time figures and, under ``importtime``, the
    ``repro`` modules it imported before its banner."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    flags = ("-X", "importtime") if importtime else ()
    with tempfile.TemporaryDirectory() as state_dir, tempfile.TemporaryFile("w+") as log:
        command = [sys.executable, *flags, "-m", "repro.cli", *serve, "--state-dir", state_dir]
        start = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=src.parent, env=env, stdout=subprocess.PIPE, stderr=log, text=True
        )
        try:
            ready, _, _ = select.select([process.stdout], [], [], 60.0)
            banner = process.stdout.readline() if ready else ""
            banner_s = time.perf_counter() - start
            if not banner.startswith(BANNER):
                log.seek(0)
                raise RuntimeError("%s: no banner (%r)\n%s" % (src, banner, log.read()[-2000:]))
            figures = {"banner_s": banner_s, **_status_mb(process.pid)}
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        log.seek(0)
        modules = {
            match.group(1)
            for match in map(_IMPORTTIME_LINE.match, log)
            if match and match.group(1).startswith("repro")
        }
    return figures, modules


def _summary(values: list[float], unit: str, digits: int) -> str:
    return "%.*f %s  [%.*f, %.*f]" % (
        digits, statistics.median(values), unit, digits, min(values), digits, max(values)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(REPO_ROOT / "src")],
                        help="src directories to compare (default: this tree's)")
    args = parser.parse_args(argv)
    trees = [Path(src).resolve() for src in args.src]
    samples: dict[Path, list[dict[str, float]]] = {tree: [] for tree in trees}
    for _ in range(SPAWNS):
        for tree in trees:
            samples[tree].append(spawn(tree)[0])
    imported = {tree: spawn(tree, importtime=True)[1] for tree in trees}
    for tree in trees:
        rows = samples[tree]
        print("%s (%d spawns)" % (tree, len(rows)))
        print("  banner VmHWM    %s" % _summary([row["VmHWM"] for row in rows], "MB", 2))
        print("  banner RssAnon  %s" % _summary([row["RssAnon"] for row in rows], "MB", 2))
        print("  time to banner  %s" % _summary([row["banner_s"] for row in rows], "s", 3))
        print("  repro modules   %d" % len(imported[tree]))
        if tree != trees[0]:
            for label, names in (
                ("not in the first tree", imported[tree] - imported[trees[0]]),
                ("only in the first tree", imported[trees[0]] - imported[tree]),
            ):
                if names:
                    print("    %s: %s" % (label, ", ".join(sorted(names))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
