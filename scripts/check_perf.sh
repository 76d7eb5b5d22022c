#!/bin/sh
# One-command perf regression check: run the repro.perf microbenchmarks
# and compare against the committed BENCH_SIM.json, failing on any
# benchmark that drops below 0.6x its recorded throughput (the slack
# absorbs wall-clock noise on shared machines; genuine hot-path
# regressions are far larger).  The report is rewritten in place so an
# intentional perf change shows up as a BENCH_SIM.json diff for review.
#
# Usage: scripts/check_perf.sh [extra `repro perf` flags]
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src python -m repro perf --json BENCH_SIM.json --fail-below 0.6 "$@"

# The scale-out microbenchmarks must stay in the report, and their
# in-process A/B ratios (both paths timed in the same run, so immune to
# machine-to-machine throughput noise) must hold their floors: direct
# dispatch beats the checked delivery path, and the bisect
# routing table beats the linear successor scan.  The WAL's per-ack cost
# is the same kind of number with a ceiling: an append + fsync pair on a
# 10,000-record log must cost under twice what it does on a 100-record one,
# and so must a follower's read conflict check on a log retaining 400
# applied entries against one retaining 10 (the window is the same two slots).
# And exact counts, the same on every host: the leader votes locally,
# so a chosen slot costs 2*(n-1) Accept-family messages, 4 at n=3, 8 at n=5;
# and a window of client ops with the collector off leaves it nothing to
# find, because a finished op is freed by reference count.  An idle node
# on node_footprint's fixed ring holds no more collector-tracked objects
# than the ceiling tests/test_gc_pacing.py holds it to.
PYTHONPATH=src python - <<'EOF'
import json
import sys

from repro.perf.microbench import NODE_FOOTPRINT_CEILING

with open("BENCH_SIM.json") as f:
    report = json.load(f)
by_name = {b["name"]: b for b in report["benchmarks"]}
failures = []
for name in (
    "ring_lookup_10k", "pooled_send_deliver", "wal_fsync_per_ack", "follower_read_window",
    "accept_msgs_per_slot", "cyclic_garbage_per_op", "node_footprint",
):
    if name not in by_name:
        failures.append(f"{name} missing from BENCH_SIM.json")
if "pooled_send_deliver" in by_name:
    ratio = by_name["pooled_send_deliver"].get("speedup_vs_checked", 0.0)
    if ratio < 1.2:
        failures.append(f"pooled_send_deliver speedup_vs_checked {ratio} < 1.2")
if "ring_lookup_10k" in by_name:
    ratio = by_name["ring_lookup_10k"].get("speedup_vs_linear", 0.0)
    if ratio < 1.5:
        failures.append(f"ring_lookup_10k speedup_vs_linear {ratio} < 1.5")
if "wal_fsync_per_ack" in by_name:
    ratio = by_name["wal_fsync_per_ack"].get("cost_ratio_10k_vs_100") or float("inf")
    if ratio > 2.0:
        failures.append(f"wal_fsync_per_ack cost_ratio_10k_vs_100 {ratio} > 2")
if "follower_read_window" in by_name:
    ratio = by_name["follower_read_window"].get("cost_ratio_400_vs_10") or float("inf")
    if ratio >= 2.0:
        failures.append(f"follower_read_window cost_ratio_400_vs_10 {ratio} >= 2")
if "accept_msgs_per_slot" in by_name:
    for key, want in (("msgs_per_slot_n3", 4.0), ("msgs_per_slot_n5", 8.0)):
        got = by_name["accept_msgs_per_slot"].get(key)
        if got != want:
            failures.append(f"accept_msgs_per_slot {key} {got} != {want}")
if "cyclic_garbage_per_op" in by_name:
    got = by_name["cyclic_garbage_per_op"].get("cyclic_garbage_per_op")
    if got != 0:
        failures.append(f"cyclic_garbage_per_op {got} != 0")
if "node_footprint" in by_name:
    got = by_name["node_footprint"].get("tracked_objects_per_node", float("inf"))
    if got > NODE_FOOTPRINT_CEILING:
        failures.append(f"node_footprint tracked_objects_per_node {got} > {NODE_FOOTPRINT_CEILING}")
for line in failures:
    print(f"check_perf: {line}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
