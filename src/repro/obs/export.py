"""Trace serialization (JSONL) and the per-phase cost breakdown report.

The JSONL schema (documented with examples in docs/OBSERVABILITY.md)
is one object per line, discriminated by ``type``:

- ``{"type": "span", "id": 7, "parent": 3, "kind": "txn.prepare",
  "run": 0, "start": 5.1032, "end": 5.1189, "attrs": {...}}`` — one
  span; ``end`` is null for spans still open when the run stopped.
- ``{"type": "counter", "name": "net.sent", "value": 81234}``
- ``{"type": "hist", "name": "client.hops", "count": 412,
  "mean": 1.9, "p50": 2.0, "p99": 5.0, "max": 7.0}``

Lines are emitted spans-first in span-id order, then counters and
histograms sorted by name, so identical runs serialize byte-identically
— the determinism tests diff the files directly.
"""

from __future__ import annotations

import json
import math
from typing import TextIO

from repro.obs.tracer import Span, Tracer


# ---------------------------------------------------------------------------
# JSONL export
# ---------------------------------------------------------------------------
def span_record(span: Span) -> dict:
    """The JSON object a span serializes to (schema above)."""
    return {
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "kind": span.kind,
        "run": span.run,
        "start": span.start,
        "end": span.end,
        "attrs": span.attrs,
    }


def dump_jsonl(tracer: Tracer, out: TextIO) -> int:
    """Write the trace to ``out``; returns the number of lines written."""
    lines = 0
    for span in tracer.spans:
        json.dump(span_record(span), out, default=str, sort_keys=True)
        out.write("\n")
        lines += 1
    for name in sorted(tracer.metrics.counters):
        json.dump(
            {"type": "counter", "name": name, "value": tracer.metrics.counters[name]},
            out,
            sort_keys=True,
        )
        out.write("\n")
        lines += 1
    for name in sorted(tracer.metrics.histograms):
        record = {"type": "hist", "name": name}
        record.update(tracer.metrics.histograms[name].summary())
        json.dump(record, out, default=str, sort_keys=True)
        out.write("\n")
        lines += 1
    return lines


def write_jsonl(tracer: Tracer, path: str) -> int:
    """Write the trace to ``path``; returns the number of lines written."""
    with open(path, "w", encoding="utf-8") as out:
        return dump_jsonl(tracer, out)


# ---------------------------------------------------------------------------
# Per-phase cost breakdown
# ---------------------------------------------------------------------------
def _ms(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{1000 * value:.1f} ms"


def _num(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.2f}"


def _span_durations(spans: list[Span]) -> list[float]:
    return [s.duration for s in spans if not s.open]


def _pct(numer: float, denom: float) -> str:
    if not denom:
        return "-"
    return f"{100 * numer / denom:.1f}%"


def render_breakdown(tracer: Tracer) -> str:
    """Human-readable per-phase cost attribution from one traced run.

    Sections mirror the layers a client operation crosses: client
    routing (hops), the network (messages by type), Paxos (accept
    rounds, elections, quorum latency), and 2PC group operations (phase
    latencies per operation kind).  Sections with no recorded activity
    still print, showing zeros — a trace of a client-free experiment
    legitimately has no ``client.op`` spans.
    """
    from repro.analysis.stats import percentile

    m = tracer.metrics
    lines: list[str] = []
    title = "Per-phase cost attribution"
    lines += [title, "=" * len(title)]

    # ---- client routing --------------------------------------------------
    ops = m.counter("client.ops")
    hops = m.histogram("client.hops")
    attempts = m.histogram("client.attempts")
    lines.append("")
    lines.append("client operations (routing)")
    lines.append(f"  ops traced:        {_num(ops)}")
    if hops is not None and hops.count:
        lines.append(
            f"  hops/op:           mean {hops.mean:.2f}  p50 {_num(hops.percentile(50))}"
            f"  p99 {_num(hops.percentile(99))}"
        )
    else:
        lines.append("  hops/op:           - (no client ops in this experiment)")
    if attempts is not None and attempts.count:
        lines.append(f"  attempts/op:       mean {attempts.mean:.2f}")
    lines.append(f"  rpc timeouts:      {_num(m.counter('client.rpc_failures'))}")
    op_spans = [s for s in tracer.spans_of("client.op") if not s.open]
    if op_spans:
        durations = _span_durations(op_spans)
        lines.append(
            f"  op latency:        p50 {_ms(percentile(durations, 50))}"
            f"  p99 {_ms(percentile(durations, 99))}"
        )

    # ---- network ---------------------------------------------------------
    lines.append("")
    lines.append("network")
    sent = m.counter("net.sent")
    lines.append(
        f"  messages:          sent {_num(sent)}  delivered {_num(m.counter('net.delivered'))}"
        f"  dropped {_num(m.counter('net.dropped'))}  to-dead {_num(m.counter('net.to_dead'))}"
        f"  duplicated {_num(m.counter('net.duplicated'))}"
    )
    per_type = sorted(
        ((name[len("net.msg."):], count) for name, count in m.counters.items()
         if name.startswith("net.msg.")),
        key=lambda item: (-item[1], item[0]),
    )
    for name, count in per_type[:8]:
        lines.append(f"    {name:<18} {_num(count):>10}  ({_pct(count, sent)})")
    if ops:
        lines.append(f"  msgs/client-op:    {sent / ops:.1f} (all protocol traffic)")

    # ---- paxos -----------------------------------------------------------
    lines.append("")
    lines.append("paxos (per-group consensus)")
    rounds = m.counter("paxos.accept_rounds")
    chosen = m.counter("paxos.slots_chosen")
    lines.append(
        f"  accept rounds:     {_num(rounds)}  slots chosen {_num(chosen)}"
        f"  rounds/slot {_num(rounds / chosen) if chosen else '-'}"
    )
    lines.append(
        f"  retransmissions:   {_num(m.counter('paxos.retransmissions'))}"
        f"  heartbeat rounds {_num(m.counter('paxos.heartbeats'))}"
    )
    elections = tracer.spans_of("paxos.election")
    won = sum(1 for s in elections if s.attrs.get("outcome") == "won")
    lines.append(f"  elections:         {_num(len(elections))}  won {_num(won)}")
    slot_durations = _span_durations(tracer.spans_of("paxos.slot"))
    if slot_durations:
        lines.append(
            f"  slot quorum time:  p50 {_ms(percentile(slot_durations, 50))}"
            f"  p99 {_ms(percentile(slot_durations, 99))}"
        )
    lease = m.counter("group.lease_reads")
    logged = m.counter("group.log_ops")
    lines.append(
        f"  reads via lease:   {_num(lease)}  via log {_num(logged)}"
        f"  (lease hit rate {_pct(lease, lease + logged)})"
    )
    follower = m.counter("reads.follower")
    bounced = m.counter("reads.bounced")
    if follower or bounced:
        lines.append(
            f"  follower reads:    {_num(follower)}  bounced {_num(bounced)}"
            f"  (serve rate {_pct(follower, follower + bounced)})"
        )

    # ---- group operations (2PC) -----------------------------------------
    lines.append("")
    lines.append("group operations (2PC over Paxos groups)")
    txn_spans = tracer.spans_of("txn.op")
    if not txn_spans:
        lines.append("  none in this run")
    kinds = sorted({s.attrs.get("spec", "?") for s in txn_spans})
    for kind in kinds:
        of_kind = [s for s in txn_spans if s.attrs.get("spec") == kind]
        committed = [s for s in of_kind if s.attrs.get("outcome") == "committed"]
        durations = _span_durations(committed)
        lines.append(
            f"  {kind:<12} {_num(len(of_kind))} started, {_num(len(committed))} committed"
            + (f", commit p50 {_ms(percentile(durations, 50))}" if durations else "")
        )
        for phase in ("txn.prepare", "txn.commit", "txn.notify"):
            phase_durations = [
                c.duration
                for s in of_kind
                for c in tracer.children_of(s)
                if c.kind == phase and not c.open
            ]
            if phase_durations:
                lines.append(
                    f"      {phase.split('.')[1]:<10} p50 {_ms(percentile(phase_durations, 50))}"
                    f"  p99 {_ms(percentile(phase_durations, 99))}"
                    f"  ({_num(len(phase_durations))} phases)"
                )
    freezes = _span_durations(tracer.spans_of("group.freeze"))
    if freezes:
        lines.append(
            f"  freeze windows:    {_num(len(freezes))}  p50 {_ms(percentile(freezes, 50))}"
            f"  max {_ms(max(freezes))}"
        )

    # ---- simulator -------------------------------------------------------
    lines.append("")
    lines.append("simulator")
    lines.append(f"  events processed:  {_num(m.counter('sim.events'))}")
    lines.append(f"  spans recorded:    {_num(len(tracer.spans))}  (open {_num(tracer.open_spans)})")
    return "\n".join(lines)
