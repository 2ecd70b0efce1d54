"""Prometheus exposition tests: validity, escaping, per-scheme isolation.

The scrape endpoint must serve a document any Prometheus server would
ingest, so these tests parse the exposition with a small strict parser
(format 0.0.4: ``# HELP``/``# TYPE`` once per family, ``name{labels}
value`` samples, backslash escaping in label values) rather than
grepping for substrings.  The multi-scheme tests host one bare fleet for
**every** registered backend side by side and assert one scrape stays a
valid document with per-scheme counter isolation.
"""

from __future__ import annotations

import re
import urllib.request

import pytest

from repro.core.api import available_schemes, create_backend
from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import ReEncryptionGateway, ReEncryptRequest
from repro.service.metrics import GatewayMetrics
from repro.service.telemetry import escape_label_value, render_prometheus
from repro.service.wire import AsyncGatewayServer, RemoteGateway
from repro.service.wire.engine import PROMETHEUS_CONTENT_TYPE

ALL_SCHEMES = sorted(available_schemes())

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    return float(text)


def parse_exposition(text: str):
    """Strictly parse exposition text into (samples, families).

    ``samples`` maps (metric name, frozenset of label pairs) -> value;
    ``families`` maps family name -> declared TYPE.  Raises AssertionError
    on anything a Prometheus scraper would reject.
    """
    samples: dict[tuple[str, frozenset], float] = {}
    families: dict[str, str] = {}
    helped: set[str] = set()
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            assert name not in helped, "duplicate HELP for %s" % name
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            _hash, _kw, name, kind = line.split(" ", 3)
            assert name not in families, "duplicate TYPE for %s" % name
            assert kind in {"counter", "gauge", "histogram"}
            families[name] = kind
            continue
        assert not line.startswith("#"), "unknown comment line: %r" % line
        match = _SAMPLE_RE.match(line)
        assert match, "unparseable sample line: %r" % line
        name = match.group("name")
        raw_labels = match.group("labels") or ""
        labels = frozenset(
            (label, _unescape(value)) for label, value in _LABEL_RE.findall(raw_labels)
        )
        # The label regex must consume the whole label string (a stray
        # unescaped quote would silently drop labels otherwise).
        rebuilt = ",".join(
            '%s="%s"' % (label, value) for label, value in _LABEL_RE.findall(raw_labels)
        )
        assert rebuilt == raw_labels, "malformed labels: %r" % raw_labels
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
        assert family in families, "sample %r lacks a TYPE declaration" % name
        key = (name, labels)
        assert key not in samples, "duplicate sample: %r" % (key,)
        samples[key] = _parse_value(match.group("value"))
    return samples, families


def _sample(samples, name, **labels):
    matches = [
        value
        for (sample_name, sample_labels), value in samples.items()
        if sample_name == name and frozenset(labels.items()) <= sample_labels
    ]
    assert len(matches) == 1, "expected one %s%r, found %d" % (name, labels, len(matches))
    return matches[0]


# ------------------------------------------------------------- render units


class TestRenderPrometheus:
    def _snapshot(self, **observe_kwargs):
        metrics = GatewayMetrics()
        metrics.observe("reencrypt", 2.0, shard="shard-00", tenant="alice")
        metrics.observe("reencrypt", 4.0, shard="shard-01", tenant="alice")
        metrics.observe("grant", 1.0, shard="shard-00", tenant="bob")
        metrics.observe_rejection(rate_limited=True, op="reencrypt", tenant="bob")
        metrics.observe_rejection(op="fetch", tenant="alice", code="entry-not-found")
        return metrics.snapshot()

    def test_document_parses_and_counters_match(self):
        samples, families = parse_exposition(
            render_prometheus({"tipre/v1": self._snapshot()})
        )
        assert families["repro_gateway_served_total"] == "counter"
        assert families["repro_gateway_latency_ms"] == "histogram"
        assert _sample(samples, "repro_gateway_served_total", scheme="tipre/v1") == 3
        assert _sample(samples, "repro_gateway_rate_limited_total", scheme="tipre/v1") == 1
        assert _sample(samples, "repro_gateway_rejected_total", scheme="tipre/v1") == 1
        assert _sample(
            samples, "repro_gateway_outcomes_total",
            scheme="tipre/v1", op="fetch", outcome="entry-not-found",
        ) == 1
        assert _sample(
            samples, "repro_gateway_tenant_outcomes_total",
            scheme="tipre/v1", tenant="alice", outcome="ok",
        ) == 2
        assert _sample(
            samples, "repro_gateway_tenant_outcomes_total",
            scheme="tipre/v1", tenant="alice", outcome="entry-not-found",
        ) == 1
        assert _sample(
            samples, "repro_gateway_shard_requests_total",
            scheme="tipre/v1", shard="shard-00",
        ) == 2

    def test_histogram_buckets_are_cumulative_and_end_at_count(self):
        samples, _families = parse_exposition(
            render_prometheus({"tipre/v1": self._snapshot()})
        )
        buckets = sorted(
            (dict(labels)["le"], value)
            for (name, labels), value in samples.items()
            if name == "repro_gateway_latency_ms_bucket"
            and ("op", "reencrypt") in labels
        )
        values = [value for _le, value in sorted(
            buckets, key=lambda pair: _parse_value(pair[0])
        )]
        assert values == sorted(values), "bucket counts must be cumulative"
        inf_count = _sample(
            samples, "repro_gateway_latency_ms_bucket",
            op="reencrypt", le="+Inf",
        )
        total = _sample(samples, "repro_gateway_latency_ms_count", op="reencrypt")
        assert inf_count == total == 2
        assert _sample(
            samples, "repro_gateway_latency_ms_sum", op="reencrypt"
        ) == pytest.approx(6.0)

    def test_label_values_escape_quotes_backslashes_newlines(self):
        wicked = 'ten"ant\\with\nnewline'
        metrics = GatewayMetrics()
        metrics.observe("reencrypt", 1.0, tenant=wicked)
        text = render_prometheus({"tipre/v1": metrics.snapshot()})
        samples, _families = parse_exposition(text)
        assert _sample(
            samples, "repro_gateway_tenant_outcomes_total",
            tenant=wicked, outcome="ok",
        ) == 1

    def test_escape_label_value_order(self):
        # Backslash first: escaping the quote's backslash twice would
        # corrupt the value.
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_families_emitted_once_across_schemes(self):
        text = render_prometheus(
            {"tipre/v1": self._snapshot(), "afgh/v1": self._snapshot()}
        )
        assert text.count("# TYPE repro_gateway_served_total counter") == 1
        samples, _families = parse_exposition(text)
        assert _sample(samples, "repro_gateway_served_total", scheme="tipre/v1") == 3
        assert _sample(samples, "repro_gateway_served_total", scheme="afgh/v1") == 3

    def test_empty_snapshot_set_renders_empty_document(self):
        samples, families = parse_exposition(render_prometheus({}) + "")
        assert samples == {}


# ----------------------------------------------------------- live endpoint


def _scrape(url: str, path: str = "/v1/metrics?format=prometheus"):
    with urllib.request.urlopen(url + path, timeout=10.0) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


@pytest.fixture()
def six_fleet_server(group):
    """One bare fleet per registered backend, hosted side by side."""
    gateways = [
        ReEncryptionGateway(create_backend(scheme_id, group), shard_count=2)
        for scheme_id in ALL_SCHEMES
    ]
    with AsyncGatewayServer(gateways=gateways) as server:
        yield server, dict(zip(ALL_SCHEMES, gateways))
    for gateway in gateways:
        gateway.close()


class TestLiveExposition:
    def test_all_registered_schemes_are_hosted(self):
        assert len(ALL_SCHEMES) == 6

    def test_one_scrape_covers_every_scheme_with_isolated_counters(
        self, six_fleet_server
    ):
        server, fleets = six_fleet_server
        for index, scheme_id in enumerate(ALL_SCHEMES):
            for _ in range(index + 1):
                fleets[scheme_id].metrics.observe(
                    "reencrypt", 1.0, shard="shard-00", tenant="t-" + scheme_id
                )
        status, content_type, body = _scrape(server.http_url)
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        samples, _families = parse_exposition(body.decode("utf-8"))
        for index, scheme_id in enumerate(ALL_SCHEMES):
            assert _sample(
                samples, "repro_gateway_served_total", scheme=scheme_id
            ) == index + 1
            # Tenant counters never leak across fleets.
            assert _sample(
                samples, "repro_gateway_tenant_outcomes_total",
                scheme=scheme_id, tenant="t-" + scheme_id, outcome="ok",
            ) == index + 1

    def test_counters_are_monotone_across_scrapes(self, six_fleet_server):
        server, fleets = six_fleet_server
        fleets[ALL_SCHEMES[0]].metrics.observe("reencrypt", 1.0)
        _status, _ct, first = _scrape(server.http_url)
        before, families = parse_exposition(first.decode("utf-8"))
        for scheme_id in ALL_SCHEMES:
            fleets[scheme_id].metrics.observe("reencrypt", 2.0)
        _status, _ct, second = _scrape(server.http_url)
        after, _families = parse_exposition(second.decode("utf-8"))
        for key, value in before.items():
            name, _labels = key
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    family = name[: -len(suffix)]
            if families.get(family) == "gauge":
                continue
            assert key in after, "counter series vanished: %r" % (key,)
            assert after[key] >= value, "counter went backwards: %r" % (key,)

    def test_prefixed_scrape_serves_exactly_one_scheme(self, six_fleet_server):
        server, fleets = six_fleet_server
        target = ALL_SCHEMES[0]
        fleets[target].metrics.observe("reencrypt", 1.0)
        status, content_type, body = _scrape(
            server.http_url, "/v1/%s/metrics?format=prometheus" % target
        )
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        samples, _families = parse_exposition(body.decode("utf-8"))
        schemes = {
            dict(labels)["scheme"]
            for (name, labels), _value in samples.items()
            if name == "repro_gateway_served_total"
        }
        assert schemes == {target}

    def test_unprefixed_json_metrics_still_refused_on_multischeme(
        self, six_fleet_server
    ):
        """format=prometheus is the only unprefixed metrics spelling that
        stays meaningful when several fleets are hosted."""
        server, _fleets = six_fleet_server
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _scrape(server.http_url, "/v1/metrics")
        assert excinfo.value.code == 400


class TestSubstrateOps:
    def test_a_cold_read_counts_one_pairing_and_one_decompression(self):
        """The served requests' own operation counts, summed per scheme:
        a cold read pays one pairing and one G1 square root, a cache hit
        neither."""
        setting = build_setting(
            group_name="TOY",
            shard_count=2,
            n_patients=1,
            n_delegatees=1,
            n_types=1,
            ciphertexts_per_pair=1,
            seed="substrate-ops",
        )
        (patient, _type_label), entries = sorted(setting.pool.items())[0]
        request = ReEncryptRequest(
            tenant=patient,
            ciphertext=entries[0][0],
            delegatee_domain=DELEGATEE_DOMAIN,
            delegatee=setting.delegatees[0],
        )
        with AsyncGatewayServer(setting.gateway, setting.group) as server:
            client = RemoteGateway(server.http_url, setting.group)

            def ops() -> dict[str, float]:
                _status, _ct, body = _scrape(server.http_url)
                samples, families = parse_exposition(body.decode("utf-8"))
                assert families.get("repro_substrate_ops_total", "counter") == "counter"
                return {
                    dict(labels)["op"]: value
                    for (name, labels), value in samples.items()
                    if name == "repro_substrate_ops_total"
                    and ("scheme", "tipre/v1") in labels
                }

            try:
                before = ops()
                assert not client.reencrypt(request).cache_hit
                cold = ops()
                assert client.reencrypt(request).cache_hit
                hot = ops()
            finally:
                client.close()
        setting.gateway.close()
        for op in ("pairing", "g1_decompress"):
            assert cold.get(op, 0) - before.get(op, 0) == 1, op
            assert hot.get(op, 0) == cold.get(op, 0), op
