#!/bin/sh
# CI fuzz gate, in two halves (both time-boxed):
#
#  1. Smoke: a short fuzz campaign on main must complete with no
#     violation found (exit 0).  Deterministic: same seed, same plans.
#  2. Canaries: the same campaign with each --demo-bug planted must
#     FIND a violation (exit 1), shrink it, and write a repro file that
#     --replay then reproduces (exit 0).  A fuzzer that has never found
#     a bug is indistinguishable from one that cannot — this proves the
#     harness has teeth on every CI run.  quorum-off-by-one exercises
#     the safety invariants; forgotten-promise exercises
#     acceptor-durability on storage-enabled plans; repair-race
#     exercises replication-floor on node_loss plans (repair that
#     skips the 2PC heals the roster but not the replication);
#     stale-follower-read skips the follower's conflict-window check
#     on follower_reads plans, and the linearizability checker flags
#     the resulting stale Gets; refusal-as-answer hands an op refused
#     at apply to the client as an answer, and the checker flags it as
#     client_contract.  Each canary writes repro-<bug>-<seed>.json, and
#     the gate fails if two canaries replay the same file.
#
# A node_loss_storm nemesis run rides along as a third gate: permanent
# losses under live load must end recovered with zero violations.
#
# Usage: scripts/check_fuzz.sh [smoke-iterations] [canary-iterations]
# Set OUT_DIR to keep the repro files (CI uploads them as artifacts on
# failure); by default a temp dir is used and cleaned up.
set -e
cd "$(dirname "$0")/.."
if [ ! -f src/repro/__init__.py ]; then
    echo "check_fuzz.sh: src/repro/__init__.py not found under $(pwd) — aborting." >&2
    exit 1
fi
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

SMOKE_ITERS="${1:-12}"
CANARY_ITERS="${2:-10}"
if [ -z "$OUT_DIR" ]; then
    OUT_DIR="$(mktemp -d)"
    trap 'rm -rf "$OUT_DIR"' EXIT
else
    mkdir -p "$OUT_DIR"
fi

echo "== fuzz smoke: $SMOKE_ITERS iterations, expecting clean =="
timeout 90 python -m repro fuzz --iterations "$SMOKE_ITERS" --seed 1 \
    --out-dir "$OUT_DIR"

run_canary() {
    bug="$1"
    seed="$2"
    iters="$3"
    echo "== fuzz canary: --demo-bug $bug, expecting a find =="
    marker="$OUT_DIR/.canary-start"
    : > "$marker"
    set +e
    timeout 120 python -m repro fuzz --iterations "$iters" --seed "$seed" \
        --demo-bug "$bug" --out-dir "$OUT_DIR"
    status=$?
    set -e
    if [ "$status" -ne 1 ]; then
        echo "check_fuzz.sh: $bug canary expected exit 1 (bug found), got $status" >&2
        exit 1
    fi
    # The repro file this canary wrote is the one newer than the marker;
    # repro names are seed-derived, so lexical order says nothing useful.
    REPRO_FILE="$(find "$OUT_DIR" -name 'repro-*.json' -newer "$marker" | head -n 1)"
    if [ -z "$REPRO_FILE" ]; then
        echo "check_fuzz.sh: $bug canary found a bug but wrote no repro file" >&2
        exit 1
    fi
    # Each canary names its file after its bug; a file an earlier canary
    # already replayed means one overwrote the other's evidence.
    case "$REPLAYED" in
        *"|$REPRO_FILE|"*)
            echo "check_fuzz.sh: $bug canary overwrote $REPRO_FILE, already replayed" >&2
            exit 1
            ;;
    esac
    REPLAYED="$REPLAYED|$REPRO_FILE|"
    echo "== replay: $REPRO_FILE must reproduce =="
    timeout 120 python -m repro fuzz --replay "$REPRO_FILE"
}

REPLAYED=""
run_canary quorum-off-by-one 1 "$CANARY_ITERS"
run_canary forgotten-promise 42 "$CANARY_ITERS"
run_canary repair-race 29 "$CANARY_ITERS"
run_canary stale-follower-read 11 "$CANARY_ITERS"
run_canary refusal-as-answer 11 "$CANARY_ITERS"

echo "== nemesis: node_loss_storm, expecting recovery with no violations =="
timeout 120 python -m repro nemesis node_loss_storm --duration 30

echo "check_fuzz.sh: OK (smoke clean, canaries found+shrunk+replayed, storm recovered)"
