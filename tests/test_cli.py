"""Tests for the file-based CLI: the full lifecycle over on-disk envelopes."""

import json
import os
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.pairing.group import PairingGroup
from repro.serialization.containers import deserialize_proxy_key, from_json_envelope
from repro.service.gateway import GrantRequest
from repro.service.wire import WIRE_FORMAT, from_wire
from test_service_fleet import _alive, _fleet_workers


@pytest.fixture()
def workspace(tmp_path):
    """Two KGC domains plus alice/bob keys, all via the CLI."""
    assert main(["--seed", "cli-test", "setup", "--group", "TOY",
                 "--domain", "KGC1", "--out", str(tmp_path / "kgc1")]) == 0
    assert main(["--seed", "cli-test", "setup", "--group", "TOY",
                 "--domain", "KGC2", "--out", str(tmp_path / "kgc2")]) == 0
    assert main(["extract", "--kgc", str(tmp_path / "kgc1"),
                 "--identity", "alice", "--out", str(tmp_path / "alice.key")]) == 0
    assert main(["extract", "--kgc", str(tmp_path / "kgc2"),
                 "--identity", "bob", "--out", str(tmp_path / "bob.key")]) == 0
    return tmp_path


def _spawn_serve(*flags):
    """A ``serve --http 0`` process on TOY and its banner line."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--http", "0", "--group", "TOY",
         *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    ready, _, _ = select.select([process.stdout], [], [], 60)
    banner = process.stdout.readline() if ready else ""
    if "gateway listening on" not in banner:
        _stop(process)
        pytest.fail("serve did not start: %r" % banner)
    return process, banner


def _stop(process):
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


class TestSetupExtract:
    def test_setup_writes_params_and_master(self, workspace):
        params = json.loads((workspace / "kgc1" / "params.json").read_text())
        assert params["kind"] == "params"
        assert params["group"] == "TOY"
        master = json.loads((workspace / "kgc1" / "master.json").read_text())
        assert master["domain"] == "KGC1"
        assert isinstance(master["alpha"], int)

    def test_extract_writes_key_envelope(self, workspace):
        key = json.loads((workspace / "alice.key").read_text())
        assert key["kind"] == "private-key"

    def test_setup_deterministic_with_seed(self, tmp_path):
        main(["--seed", "s", "setup", "--group", "TOY", "--domain", "D",
              "--out", str(tmp_path / "a")])
        main(["--seed", "s", "setup", "--group", "TOY", "--domain", "D",
              "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "params.json").read_text() == (
            tmp_path / "b" / "params.json"
        ).read_text()


class TestLifecycle:
    def test_full_delegation_round_trip(self, workspace):
        message = b"HbA1c: 6.1 mmol/mol -- confidential lab report\n"
        (workspace / "report.txt").write_bytes(message)

        assert main(["--seed", "enc", "encrypt",
                     "--params", str(workspace / "kgc1" / "params.json"),
                     "--key", str(workspace / "alice.key"),
                     "--type", "labs",
                     "--in", str(workspace / "report.txt"),
                     "--out", str(workspace / "report.ct")]) == 0

        # Alice reads her own ciphertext back.
        assert main(["decrypt", "--key", str(workspace / "alice.key"),
                     "--in", str(workspace / "report.ct"),
                     "--out", str(workspace / "self.out")]) == 0
        assert (workspace / "self.out").read_bytes() == message

        assert main(["--seed", "rk", "pextract",
                     "--key", str(workspace / "alice.key"),
                     "--delegatee", "bob",
                     "--delegatee-params", str(workspace / "kgc2" / "params.json"),
                     "--type", "labs",
                     "--out", str(workspace / "labs.rk")]) == 0

        assert main(["preenc", "--rk", str(workspace / "labs.rk"),
                     "--in", str(workspace / "report.ct"),
                     "--out", str(workspace / "report.re")]) == 0

        assert main(["redecrypt", "--key", str(workspace / "bob.key"),
                     "--in", str(workspace / "report.re"),
                     "--out", str(workspace / "bob.out")]) == 0
        assert (workspace / "bob.out").read_bytes() == message

    def test_wrong_type_proxy_key_refused(self, workspace):
        (workspace / "m.txt").write_bytes(b"secret")
        main(["--seed", "e", "encrypt",
              "--params", str(workspace / "kgc1" / "params.json"),
              "--key", str(workspace / "alice.key"), "--type", "illness",
              "--in", str(workspace / "m.txt"), "--out", str(workspace / "m.ct")])
        main(["--seed", "r", "pextract", "--key", str(workspace / "alice.key"),
              "--delegatee", "bob",
              "--delegatee-params", str(workspace / "kgc2" / "params.json"),
              "--type", "food", "--out", str(workspace / "food.rk")])
        # preenc must fail: the key names a different type.
        assert main(["preenc", "--rk", str(workspace / "food.rk"),
                     "--in", str(workspace / "m.ct"),
                     "--out", str(workspace / "m.re")]) == 1

    def test_pextract_key_file_is_a_wire_grant_as_it_is(self, workspace):
        """The README's one-``curl`` grant: a key file is a proxy_key envelope."""
        assert main(["--seed", "rk", "pextract", "--key", str(workspace / "alice.key"),
                     "--delegatee", "bob",
                     "--delegatee-params", str(workspace / "kgc2" / "params.json"),
                     "--type", "labs", "--out", str(workspace / "labs.rk")]) == 0
        key_file = (workspace / "labs.rk").read_text()
        group = PairingGroup("TOY")
        text = '{"wire": "%s", "type": "grant-request", "body": ' % WIRE_FORMAT
        text += '{"tenant": "alice", "proxy_key": %s}}' % key_file
        request = from_wire(group, text, expect=GrantRequest)
        assert request.proxy_key == deserialize_proxy_key(
            group, from_json_envelope(group, key_file)
        )
        assert (request.proxy_key.delegator, request.proxy_key.type_label) == ("alice", "labs")

    def test_wrong_key_decrypt_fails_cleanly(self, workspace):
        (workspace / "m.txt").write_bytes(b"secret")
        main(["--seed", "e", "encrypt",
              "--params", str(workspace / "kgc1" / "params.json"),
              "--key", str(workspace / "alice.key"), "--type", "t",
              "--in", str(workspace / "m.txt"), "--out", str(workspace / "m.ct")])
        assert main(["decrypt", "--key", str(workspace / "bob.key"),
                     "--in", str(workspace / "m.ct"),
                     "--out", str(workspace / "x.out")]) == 1


class TestErrorHandling:
    def test_missing_file(self, tmp_path):
        assert main(["decrypt", "--key", str(tmp_path / "no.key"),
                     "--in", str(tmp_path / "no.ct"),
                     "--out", str(tmp_path / "x")]) == 1

    def test_corrupt_envelope(self, workspace):
        bad = workspace / "bad.json"
        bad.write_text('{"format": "tipre/v1", "group": "TOY", "payload": "AAAA"}')
        assert main(["preenc", "--rk", str(bad),
                     "--in", str(bad), "--out", str(workspace / "x")]) == 1

    def test_unknown_group_in_setup(self, tmp_path, capsys):
        assert main(["setup", "--group", "NOPE", "--domain", "D",
                     "--out", str(tmp_path / "d")]) == 1
        assert "error" in capsys.readouterr().err


class TestServe:
    def test_serve_prints_gateway_metrics(self, capsys):
        assert main(["serve", "--group", "TOY", "--shards", "2",
                     "--requests", "24", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "gateway: 24 requests over 2 shards" in out
        assert "result_cache hit rate" in out
        assert "shard imbalance" in out

    def test_serve_has_no_workers_flag(self, capsys):
        """The gateway runs no thread pool, so there is nothing to size."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--group", "TOY", "--workers", "4"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_with_rate_limit_survives_rejections(self, capsys):
        """Regression: rate-limited requests are counted, not a crash."""
        assert main(["serve", "--group", "TOY", "--shards", "2",
                     "--requests", "80", "--rate", "5"]) == 0
        out = capsys.readouterr().out
        assert "rate limited" in out

    def test_serve_connect_drives_a_remote_gateway(self, capsys):
        """--connect replays the workload against a live HTTP server."""
        from repro.core.scheme import TypeAndIdentityPre
        from repro.pairing.group import PairingGroup
        from repro.service.gateway import ReEncryptionGateway
        from repro.service.wire import AsyncGatewayServer

        group = PairingGroup.shared("TOY")
        gateway = ReEncryptionGateway(TypeAndIdentityPre(group), shard_count=2)
        with AsyncGatewayServer(gateway, group) as server:
            assert main(["serve", "--group", "TOY", "--requests", "16",
                         "--batch", "4", "--connect", server.http_url]) == 0
        gateway.close()
        out = capsys.readouterr().out
        assert "remote gateway %s: 16 requests" % server.http_url in out
        assert "served" in out and "plaintexts verified" in out

    def test_serve_http_and_connect_are_exclusive(self, capsys):
        assert main(["serve", "--http", "0",
                     "--connect", "http://127.0.0.1:1"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_serve_with_scheme_drives_a_baseline_backend(self, capsys):
        assert main(["serve", "--group", "TOY", "--scheme", "afgh/v1",
                     "--shards", "2", "--requests", "24", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "afgh/v1" in out
        assert "plaintexts verified" in out

    def test_serve_unknown_scheme_is_a_usage_error(self, capsys):
        assert main(["serve", "--scheme", "nonsense/v0", "--requests", "1"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_serve_multiple_schemes_require_http(self, capsys):
        """Repeated --scheme flags only make sense for a hosting server."""
        assert main(["serve", "--scheme", "tipre/v1", "--scheme", "afgh/v1",
                     "--requests", "1"]) == 2
        assert "--http" in capsys.readouterr().err

    def test_serve_fleet_usage_errors(self, capsys):
        assert main(["serve", "--fleet", "2", "--requests", "1"]) == 2
        assert "--http" in capsys.readouterr().err
        assert main(["serve", "--http", "0", "--fleet", "2",
                     "--scheme", "tipre/v1", "--scheme", "afgh/v1"]) == 2
        assert "one scheme" in capsys.readouterr().err
        assert main(["serve", "--http", "0", "--fleet", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_state_dir_layout_transitions_never_hide_keys(self, tmp_path):
        """single->multi refuses on root logs; multi->single adopts the
        per-scheme subdirectory instead of opening an empty root fleet."""
        from repro.cli import _state_dirs_for

        # Fresh dir: single keeps the root, multi gets per-scheme subdirs.
        assert _state_dirs_for(None, ["tipre/v1"]) == [None]
        assert _state_dirs_for(tmp_path, ["tipre/v1"]) == [tmp_path]
        assert _state_dirs_for(tmp_path, ["tipre/v1", "afgh/v1"]) == [
            tmp_path / "tipre-v1",
            tmp_path / "afgh-v1",
        ]
        # multi -> single: root empty, the scheme's subdir holds logs.
        (tmp_path / "tipre-v1").mkdir()
        (tmp_path / "tipre-v1" / "shard-00.log").write_text("")
        assert _state_dirs_for(tmp_path, ["tipre/v1"]) == [tmp_path / "tipre-v1"]
        # single -> multi: root logs would be silently skipped; refuse.
        (tmp_path / "shard-00.log").write_text("")
        with pytest.raises(ValueError, match="move"):
            _state_dirs_for(tmp_path, ["tipre/v1", "afgh/v1"])

    def test_serve_http_refuses_ambiguous_state_dir_layout(self, tmp_path, capsys):
        (tmp_path / "shard-00.log").write_text("")
        assert main(["serve", "--http", "0", "--scheme", "tipre/v1",
                     "--scheme", "afgh/v1", "--state-dir", str(tmp_path)]) == 1
        assert "move" in capsys.readouterr().err

    def test_serve_keeps_an_event_log_inside_its_state_dir(self, tmp_path, capsys):
        """An --event-log in the --state-dir is not a key log: a restart
        starts, loads every key and keeps the first run's events."""
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        events = state_dir / "events.log"
        flags = ("--shards", "2", "--state-dir", str(state_dir), "--event-log", str(events))
        process, banner = _spawn_serve(*flags)
        try:
            assert "0 keys loaded" in banner
            url = banner.split()[3]
            assert main(["serve", "--group", "TOY", "--requests", "8", "--connect", url]) == 0
        finally:
            _stop(process)
        first_run = events.read_text()
        audits = [json.loads(line) for line in first_run.splitlines()]
        assert any(event.get("action") == "grant" for event in audits)
        process, banner = _spawn_serve(*flags)
        try:
            assert "36 keys loaded" in banner
        finally:
            _stop(process)
        assert events.read_text().startswith(first_run)
        assert sorted(path.name for path in state_dir.iterdir()) == ["events.log", "keys.log"]

    def test_serve_connect_with_pool_size_drives_concurrently_capable_client(
        self, capsys
    ):
        from repro.core.scheme import TypeAndIdentityPre
        from repro.pairing.group import PairingGroup
        from repro.service.gateway import ReEncryptionGateway
        from repro.service.wire import AsyncGatewayServer

        group = PairingGroup.shared("TOY")
        gateway = ReEncryptionGateway(TypeAndIdentityPre(group), shard_count=2)
        with AsyncGatewayServer(gateway, group) as server:
            assert main(["serve", "--group", "TOY", "--requests", "16",
                         "--pool-size", "4", "--connect", server.http_url]) == 0
        gateway.close()
        out = capsys.readouterr().out
        assert "plaintexts verified" in out

    def test_serve_connect_with_scheme_drives_a_remote_backend(self, capsys):
        """--connect --scheme: grant -> re-encrypt over the wire -> decrypt
        against a server that holds no party secrets for that scheme."""
        from repro.core.api import create_backend
        from repro.pairing.group import PairingGroup
        from repro.service.gateway import ReEncryptionGateway
        from repro.service.wire import AsyncGatewayServer

        group = PairingGroup.shared("TOY")
        gateway = ReEncryptionGateway(
            create_backend("green-ateniese/v1", group), shard_count=2
        )
        with AsyncGatewayServer(gateway) as server:
            assert main(["serve", "--group", "TOY", "--scheme", "green-ateniese/v1",
                         "--requests", "16", "--batch", "4",
                         "--connect", server.http_url]) == 0
        gateway.close()
        out = capsys.readouterr().out
        assert "remote gateway %s: 16 requests" % server.http_url in out
        assert "green-ateniese/v1" in out and "plaintexts verified" in out


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
class TestServeAsyncLifecycle:
    """``serve --http`` runs its event loop on the main thread: single
    requests start no other thread, and SIGTERM ends the loop between
    requests and returns through the CLI's cleanup."""

    def test_sigterm_exits_cleanly_from_one_thread_and_keeps_the_keys(self, tmp_path, capsys):
        from repro.service.gateway import ReEncryptionGateway

        state_dir = tmp_path / "state"
        process, banner = _spawn_serve("--state-dir", str(state_dir))
        try:
            url = banner.split()[3]
            assert url.startswith("mux://127.0.0.1:") and not url.endswith(":0")
            # Grants and single re-encryptions, each verified end to end.
            assert main(["serve", "--group", "TOY", "--requests", "8", "--connect", url]) == 0
            assert "plaintexts verified" in capsys.readouterr().out
            assert len(os.listdir("/proc/%d/task" % process.pid)) == 1
            # A client that stays connected does not hold the exit off.
            host, port = url[len("mux://"):].rsplit(":", 1)
            with socket.create_connection((host, int(port))):
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=5) == 0
            assert "Traceback" not in process.stdout.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        gateway = ReEncryptionGateway(PairingGroup.shared("TOY"), state_dir=state_dir)
        try:
            assert gateway.key_count() == 36
        finally:
            gateway.close()

    def test_sigterm_on_an_async_fleet_router_stops_its_workers(self, tmp_path):
        state_dir = tmp_path / "fleet"
        process, banner = _spawn_serve("--fleet", "1", "--state-dir", str(state_dir))
        try:
            assert "fleet gateway listening on mux://" in banner
            workers = _fleet_workers(process.pid)
            assert list(workers) == ["shard-00"]
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        assert not any(_alive(pid) for pid in workers.values())


class TestSchemes:
    def test_schemes_lists_the_registry_with_capabilities(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for scheme_id in ("tipre/v1", "afgh/v1", "green-ateniese/v1",
                          "bbs/v1", "dodis-ivan/v1", "matsuo/v1"):
            assert scheme_id in out
        assert "det-reenc" in out and "typed" in out
