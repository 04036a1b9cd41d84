#!/usr/bin/env bash
# Chaos drill: run a sweep through the distributed coordinator while
# workers die, hang, and double-deliver, then verify the merged CSV is
# byte-identical to an uninterrupted single-process run.
#
# The cast:
#   - 2 healthy workers that get SIGKILLed mid-grid (at random-ish
#     moments, picked by polling the ledger for progress), then two
#     replacements spawned in their place
#   - 1 worker that hangs on its first claimed cell and holds the
#     lease forever (-inject hang-at-cell=1) — lease expiry must
#     reassign its cell
#   - 1 worker that delivers its first commit twice
#     (-inject dup-commit=1) — fencing must absorb the duplicate
#
# CI runs this as the distributed-sweep acceptance test; run it
# locally after touching internal/dist, the lease ledger, or the
# worker/coordinator frontends.
#
# Usage: scripts/chaos_drill.sh [workdir]
# A workdir given is always kept; one the drill makes is removed when
# it passes and kept, its path printed, when it fails.
set -euo pipefail

if [ $# -ge 1 ]; then
    WORKDIR=$1
else
    WORKDIR=$(mktemp -d)
    trap 'if [ $? -eq 0 ]; then rm -rf "$WORKDIR"; else echo "chaos drill: work directory kept: $WORKDIR" >&2; fi' EXIT
fi
SIM="$WORKDIR/compactsim"
WORKER="$WORKDIR/sweepworker"
SWEEP_FLAGS=(-adversary random -manager all -M 32Ki -n 128
             -sweep 4,16,64 -seed 7 -rounds 250)

echo "chaos drill: workdir $WORKDIR"
go build -o "$SIM" ./cmd/compactsim
go build -o "$WORKER" ./cmd/sweepworker

# Ground truth: the uninterrupted single-process run.
"$SIM" "${SWEEP_FLAGS[@]}" -csv "$WORKDIR/clean.csv" >/dev/null

# The coordinator: leases over HTTP (OS-picked port), journaled in the
# ledger, short TTL so the drill's hung worker is detected quickly.
"$SIM" "${SWEEP_FLAGS[@]}" -coordinate 127.0.0.1:0 -ledger "$WORKDIR/ledger" \
    -lease-ttl 2s -progress -csv "$WORKDIR/chaos.csv" \
    >"$WORKDIR/coord.out" 2>"$WORKDIR/coord.err" &
COORD=$!

# Wait for the coordinator to listen, and learn its address.
URL=""
for _ in $(seq 1 100); do
    URL=$(sed -n 's#.*coordinating .* on \(http://[0-9.:]*\).*#\1#p' "$WORKDIR/coord.err" 2>/dev/null | head -1)
    [ -n "$URL" ] && break
    if ! kill -0 "$COORD" 2>/dev/null; then
        echo "chaos drill: FAIL — coordinator died before listening" >&2
        cat "$WORKDIR/coord.err" >&2
        exit 1
    fi
    sleep 0.05
done
if [ -z "$URL" ]; then
    echo "chaos drill: FAIL — coordinator never reported its address" >&2
    exit 1
fi
echo "chaos drill: coordinator at $URL"

spawn_worker() { # $1 = id, extra args follow
    local id=$1; shift
    "$WORKER" -coordinator "$URL" -id "$id" "$@" \
        >/dev/null 2>"$WORKDIR/$id.err" &
    echo $!
}

# ledger_commits counts durable commits — the drill's progress clock.
ledger_commits() {
    local f="$WORKDIR/ledger/ledger.ndjson"
    if [ ! -f "$f" ]; then
        echo 0
        return
    fi
    grep -c '"op":"commit"' "$f" || true
}

# The four chaos workers.
V1=$(spawn_worker victim1)
V2=$(spawn_worker victim2)
HUNG=$(spawn_worker hung -inject hang-at-cell=1)
DUP=$(spawn_worker dup -inject dup-commit=1)

# Kill victim1 after the first commit lands, victim2 a little later —
# both mid-grid, both with live leases somewhere in flight.
for _ in $(seq 1 400); do
    [ "$(ledger_commits)" -ge 1 ] && break
    sleep 0.05
done
kill -KILL "$V1" 2>/dev/null || true
echo "chaos drill: SIGKILLed victim1 after $(ledger_commits) commits"

for _ in $(seq 1 400); do
    [ "$(ledger_commits)" -ge 3 ] && break
    sleep 0.05
done
kill -KILL "$V2" 2>/dev/null || true
echo "chaos drill: SIGKILLed victim2 after $(ledger_commits) commits"

# Replacements so the grid finishes even with the hung worker pinned.
R1=$(spawn_worker replacement1)
R2=$(spawn_worker replacement2)

# The coordinator must finish despite the carnage.
set +e
wait "$COORD"
STATUS=$?
set -e
if [ "$STATUS" -ne 0 ]; then
    echo "chaos drill: FAIL — coordinator exited $STATUS" >&2
    cat "$WORKDIR/coord.err" >&2
    exit 1
fi

# The hung worker still holds a dead lease; it never exits on its own.
kill -KILL "$HUNG" 2>/dev/null || true
# The polite participants drain by themselves once the grid settles.
for pid in "$DUP" "$R1" "$R2"; do
    wait "$pid" 2>/dev/null || true
done

if ! cmp -s "$WORKDIR/clean.csv" "$WORKDIR/chaos.csv"; then
    echo "chaos drill: FAIL — chaos CSV differs from the uninterrupted run:" >&2
    diff "$WORKDIR/clean.csv" "$WORKDIR/chaos.csv" >&2 || true
    exit 1
fi

# The recovery machinery must actually have fired: the monitor's final
# progress line reports reassigned leases (the two kills + the hang)
# and fenced commits (the duplicate delivery at minimum).
FINAL=$(grep 'leases reassigned' "$WORKDIR/coord.err" | tail -1)
if [ -z "$FINAL" ]; then
    echo "chaos drill: FAIL — no lease reassignments reported; the faults did not bite" >&2
    cat "$WORKDIR/coord.err" >&2
    exit 1
fi
echo "chaos drill: $FINAL"
REASSIGNED=$(printf '%s\n' "$FINAL" | sed -n 's/.*, \([0-9]*\) leases reassigned.*/\1/p')
if [ -z "$REASSIGNED" ] || [ "$REASSIGNED" -lt 2 ]; then
    echo "chaos drill: FAIL — only ${REASSIGNED:-0} leases reassigned, want >= 2 (two SIGKILLs + a hang)" >&2
    exit 1
fi
if ! printf '%s\n' "$FINAL" | grep -q 'commits fenced'; then
    echo "chaos drill: FAIL — no fenced commits reported; the duplicate delivery was not exercised" >&2
    exit 1
fi

# A completed grid cleans up its ledger.
if [ -d "$WORKDIR/ledger" ]; then
    echo "chaos drill: FAIL — ledger not removed after a complete grid" >&2
    exit 1
fi

echo "chaos drill: PASS — merged CSV byte-identical through 2 kills, 1 hang, 1 duplicate"
