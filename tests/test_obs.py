"""Tests for repro.obs: spans, metrics, trace export, and the guarantee
that tracing never perturbs a simulation."""

import io
import json
from pathlib import Path

import pytest

from repro.harness.builders import DeploymentParams, build_scatter_deployment
from repro.harness.experiments import ALL_EXPERIMENTS, run_traced
from repro.harness.results import ExperimentResult
from repro.obs import (
    ALL_SPAN_KINDS,
    Histogram,
    MetricsRegistry,
    Tracer,
    clear_tracer,
    current_tracer,
    install_tracer,
    render_breakdown,
    tracing,
    write_jsonl,
)
from repro.obs.export import dump_jsonl
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Helpers: one small deployment run, with or without tracing
# ---------------------------------------------------------------------------
def _drive(seed: int, drop_prob: float = 0.0):
    """Run a small deployment + workload; return (deployment, fingerprint)."""
    params = DeploymentParams(
        n_nodes=9, n_groups=3, n_clients=2, seed=seed, drop_prob=drop_prob
    )
    deployment = build_scatter_deployment(params)
    workload = ClosedLoopWorkload(
        deployment.sim, deployment.clients, UniformKeys(20), read_fraction=0.5
    )
    workload.start()
    deployment.sim.run_for(10.0)
    workload.stop()
    deployment.sim.run_for(1.0)
    records = workload.all_records()
    fingerprint = (
        deployment.sim.events_processed,
        deployment.net.stats.sent,
        deployment.net.stats.delivered,
        [
            (r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9), r.hops, r.attempts)
            for r in records
        ],
    )
    return deployment, fingerprint


def _traced_drive(seed: int, drop_prob: float = 0.0):
    tracer = Tracer()
    with tracing(tracer):
        deployment, fingerprint = _drive(seed, drop_prob=drop_prob)
    return deployment, fingerprint, tracer


def _jsonl_bytes(tracer: Tracer) -> str:
    out = io.StringIO()
    dump_jsonl(tracer, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Tracer primitives
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_records_virtual_time(self):
        sim = Simulator(seed=1)
        tracer = Tracer()
        tracer.bind(sim)
        sim.schedule(2.5, lambda: None)
        span = tracer.begin("client.op", op="get")
        sim.run()
        tracer.finish(span, ok=True)
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5
        assert not span.open
        assert span.attrs == {"op": "get", "ok": True}

    def test_parent_links_and_children(self):
        tracer = Tracer()
        parent = tracer.begin("txn.op")
        child_a = tracer.begin("txn.prepare", parent=parent)
        child_b = tracer.begin("txn.commit", parent=parent)
        other = tracer.begin("txn.op")
        assert child_a.parent_id == parent.span_id
        assert tracer.children_of(parent) == [child_a, child_b]
        assert tracer.children_of(other) == []
        assert [s.span_id for s in tracer.spans] == [1, 2, 3, 4]

    def test_open_span_accounting(self):
        tracer = Tracer()
        a = tracer.begin("paxos.slot")
        b = tracer.begin("paxos.slot")
        assert tracer.open_spans == 2
        assert a.open and b.open
        assert a.duration != a.duration  # NaN while open
        tracer.finish(a)
        assert tracer.open_spans == 1

    def test_double_finish_raises(self):
        tracer = Tracer()
        span = tracer.begin("client.op")
        tracer.finish(span)
        with pytest.raises(RuntimeError):
            tracer.finish(span)

    def test_rebinding_bumps_run_index(self):
        tracer = Tracer()
        assert tracer.now == 0.0  # unbound clock
        tracer.bind(Simulator(seed=1))
        first = tracer.begin("client.op")
        tracer.bind(Simulator(seed=2))
        second = tracer.begin("client.op")
        assert (first.run, second.run) == (0, 1)


class TestMetrics:
    def test_counters(self):
        m = MetricsRegistry()
        m.inc("net.sent")
        m.inc("net.sent", 4)
        assert m.counter("net.sent") == 5
        assert m.counter("never.touched") == 0
        assert m.ratio("net.sent", "never.touched") != m.ratio(
            "net.sent", "never.touched"
        )  # NaN on a zero denominator

    def test_histogram_summary(self):
        m = MetricsRegistry()
        for v in [1.0, 2.0, 3.0, 4.0]:
            m.observe("client.hops", v)
        hist = m.histogram("client.hops")
        assert hist.count == 4
        assert hist.mean == 2.5
        assert hist.percentile(50) == 2.5
        assert hist.max == 4.0
        summary = hist.summary()
        assert summary["count"] == 4 and summary["p99"] == pytest.approx(3.97)

    def test_histogram_sample_cap_keeps_exact_count(self):
        hist = Histogram(max_samples=10)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.total == sum(range(100))
        assert len(hist.values) == 10
        assert hist.max == 99.0


class TestRuntime:
    def test_install_and_clear(self):
        tracer = Tracer()
        install_tracer(tracer)
        try:
            assert current_tracer() is tracer
            assert Simulator(seed=1).tracer is tracer
        finally:
            clear_tracer()
        assert current_tracer() is None
        assert Simulator(seed=1).tracer is None

    def test_tracing_context_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with tracing(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None


# ---------------------------------------------------------------------------
# Integration: tracing a real deployment
# ---------------------------------------------------------------------------
class TestTracedDeployment:
    def test_trace_is_deterministic_across_identical_seeds(self):
        _dep_a, _fp_a, tracer_a = _traced_drive(seed=7)
        _dep_b, _fp_b, tracer_b = _traced_drive(seed=7)
        assert _jsonl_bytes(tracer_a) == _jsonl_bytes(tracer_b)

    def test_tracing_does_not_perturb_the_simulation(self):
        # The same seed must produce byte-identical workload histories and
        # event counts whether a tracer is installed or not.
        _dep_plain, fp_plain = _drive(seed=7)
        _dep_traced, fp_traced, _tracer = _traced_drive(seed=7)
        clear_tracer()  # belt and braces: "absent" rerun below is untraced
        _dep_absent, fp_absent = _drive(seed=7)
        assert fp_traced == fp_plain
        assert fp_absent == fp_plain

    def test_net_counters_match_network_stats(self):
        deployment, _fp, tracer = _traced_drive(seed=7, drop_prob=0.02)
        stats = deployment.net.stats
        m = tracer.metrics
        assert m.counter("net.sent") == stats.sent
        assert m.counter("net.delivered") == stats.delivered
        assert m.counter("net.dropped") == stats.dropped
        assert m.counter("net.to_dead") == stats.to_dead
        assert m.counter("net.duplicated") == stats.duplicated
        by_type_total = sum(
            count for name, count in m.counters.items() if name.startswith("net.msg.")
        )
        assert by_type_total == stats.sent

    def test_traced_fault_free_run_never_takes_the_checked_path(self, monkeypatch):
        # With no fault active and every destination registered, each
        # message is dispatched directly from the run loop: a tracer
        # must not route it through SimNetwork._deliver.
        calls = []
        checked = SimNetwork._deliver

        def counting(self, src, dst, msg):
            calls.append(dst)
            checked(self, src, dst, msg)

        monkeypatch.setattr(SimNetwork, "_deliver", counting)
        deployment, _fp, tracer = _traced_drive(seed=7)
        assert deployment.net.stats.delivered > 0
        assert deployment.net.stats.to_dead == 0
        assert len(calls) == 0
        assert tracer.metrics.counter("net.delivered") == deployment.net.stats.delivered

    def test_emitted_span_kinds_are_in_the_taxonomy(self):
        _dep, _fp, tracer = _traced_drive(seed=7)
        emitted = {span.kind for span in tracer.spans}
        assert emitted  # a live deployment must produce spans
        assert emitted <= set(ALL_SPAN_KINDS)

    def test_sim_events_counter_matches_events_processed(self):
        deployment, _fp, tracer = _traced_drive(seed=7)
        assert tracer.metrics.counter("sim.events") == deployment.sim.events_processed

    def test_client_op_spans_close_with_routing_attrs(self):
        _dep, _fp, tracer = _traced_drive(seed=7)
        op_spans = tracer.spans_of("client.op")
        assert op_spans
        for span in op_spans:
            assert not span.open
            assert span.attrs["hops"] >= 0
            assert span.attrs["attempts"] >= span.attrs["hops"]
        hops = tracer.metrics.histogram("client.hops")
        assert hops is not None and hops.count == len(op_spans)


class TestExport:
    def test_jsonl_lines_parse_and_cover_all_record_types(self, tmp_path):
        _dep, _fp, tracer = _traced_drive(seed=7)
        path = tmp_path / "trace.jsonl"
        lines = write_jsonl(tracer, str(path))
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(parsed) == lines == len(tracer.spans) + len(
            tracer.metrics.counters
        ) + len(tracer.metrics.histograms)
        kinds = {record["type"] for record in parsed}
        assert kinds == {"span", "counter", "hist"}
        span_records = [r for r in parsed if r["type"] == "span"]
        assert [r["id"] for r in span_records] == sorted(r["id"] for r in span_records)

    def test_breakdown_renders_every_section(self):
        _dep, _fp, tracer = _traced_drive(seed=7)
        text = render_breakdown(tracer)
        for heading in (
            "client operations",
            "network",
            "paxos",
            "group operations",
            "simulator",
        ):
            assert heading in text
        assert "hops/op" in text
        assert "events processed" in text

    def test_breakdown_handles_empty_tracer(self):
        text = render_breakdown(Tracer())
        assert "no client ops" in text


# ---------------------------------------------------------------------------
# Documentation and CLI contracts
# ---------------------------------------------------------------------------
class TestDocumentation:
    def test_every_span_kind_is_documented(self):
        doc = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        for kind in ALL_SPAN_KINDS:
            assert f"`{kind}`" in doc, f"span kind {kind} missing from OBSERVABILITY.md"


def _fake_experiment(quick=True, seed=None):
    """A registry-shaped experiment small enough for a CLI test."""
    _deployment, _fp = _drive(seed=seed if seed is not None else 3)
    result = ExperimentResult(
        experiment="E99", title="fake", columns=["x"], rows=[{"x": 1}]
    )
    return result


class TestCli:
    def test_trace_command_writes_jsonl_and_prints_breakdown(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setitem(ALL_EXPERIMENTS, "E99", (_fake_experiment, "fake"))
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "e99", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Per-phase cost attribution" in printed
        assert out.exists()
        first = json.loads(out.read_text().splitlines()[0])
        assert first["type"] in ("span", "counter", "hist")

    def test_trace_rejects_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["trace", "E1234"]) == 2

    def test_run_traced_matches_untraced_result(self):
        from repro.harness.experiments import run_e05

        traced, tracer = run_traced("E5", quick=True, seed=2)
        plain = run_e05(quick=True, seed=2)
        assert traced.rows == plain.rows
        assert tracer.spans  # E5 performs group operations, so spans exist
