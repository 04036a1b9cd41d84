#!/usr/bin/env bash
# Resume drill: run a paper-scale sweep, SIGTERM it mid-grid, resume
# from the checkpoint, and verify the resumed CSV is byte-identical to
# an uninterrupted run. A second arm SIGKILLs a distributed sweep's
# coordinator and its worker mid-grid and reruns the coordinator on
# the same ledger. CI runs this as the recovery acceptance test; run
# it locally after touching the sweep scheduler, the resume journal,
# the lease ledger, or compactsim's signal handling.
#
# Usage: scripts/resume_drill.sh [workdir]
# A workdir given is always kept; one the drill makes is removed when
# it passes and kept, its path printed, when it fails.
set -euo pipefail

if [ $# -ge 1 ]; then
    WORKDIR=$1
else
    WORKDIR=$(mktemp -d)
    trap 'if [ $? -eq 0 ]; then rm -rf "$WORKDIR"; else echo "resume drill: work directory kept: $WORKDIR" >&2; fi' EXIT
fi
BIN="$WORKDIR/compactsim"
SWEEP_FLAGS=(-adversary random -manager all -M 32Ki -n 128
             -sweep 4,16,64 -seed 7 -rounds 250)

echo "resume drill: workdir $WORKDIR"
go build -o "$BIN" ./cmd/compactsim

# Ground truth: the uninterrupted run.
"$BIN" "${SWEEP_FLAGS[@]}" -csv "$WORKDIR/clean.csv" >/dev/null

# Interrupted run: SIGTERM once a couple of checkpoints are durable.
# The sweep must exit with status 3 (interrupted), not 0 or 1.
"$BIN" "${SWEEP_FLAGS[@]}" -checkpoint "$WORKDIR/sweep.ckpt" \
    -csv "$WORKDIR/interrupted.csv" >/dev/null 2>"$WORKDIR/interrupted.err" &
PID=$!
for _ in $(seq 1 200); do
    # Wait for the journal to hold at least one completed cell before
    # pulling the plug, so the drill actually exercises restoration.
    if [ -s "$WORKDIR/sweep.ckpt" ]; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "resume drill: FAIL — sweep finished before it could be interrupted; grow the grid" >&2
        exit 1
    fi
    sleep 0.05
done
kill -TERM "$PID" 2>/dev/null || true
set +e
wait "$PID"
STATUS=$?
set -e
if [ "$STATUS" -ne 3 ]; then
    echo "resume drill: FAIL — interrupted sweep exited $STATUS, want 3" >&2
    cat "$WORKDIR/interrupted.err" >&2
    exit 1
fi
if [ ! -s "$WORKDIR/sweep.ckpt" ]; then
    echo "resume drill: FAIL — no checkpoint journal survived the signal" >&2
    exit 1
fi
echo "resume drill: interrupted with exit 3, journal $(wc -c <"$WORKDIR/sweep.ckpt") bytes"

# Resume: same flags, same checkpoint. Must complete, remove the
# journal, and reproduce the uninterrupted CSV byte for byte.
"$BIN" "${SWEEP_FLAGS[@]}" -checkpoint "$WORKDIR/sweep.ckpt" \
    -csv "$WORKDIR/resumed.csv" >/dev/null 2>"$WORKDIR/resumed.err"
if ! grep -q resuming "$WORKDIR/resumed.err"; then
    echo "resume drill: FAIL — resumed run did not restore from the journal" >&2
    cat "$WORKDIR/resumed.err" >&2
    exit 1
fi
if [ -e "$WORKDIR/sweep.ckpt" ]; then
    echo "resume drill: FAIL — journal not removed after a complete sweep" >&2
    exit 1
fi
if ! cmp -s "$WORKDIR/clean.csv" "$WORKDIR/resumed.csv"; then
    echo "resume drill: FAIL — resumed CSV differs from the uninterrupted run:" >&2
    diff "$WORKDIR/clean.csv" "$WORKDIR/resumed.csv" >&2 || true
    exit 1
fi
echo "resume drill: checkpoint arm passed — resumed CSV byte-identical to the uninterrupted run"

# Coordinator crash: SIGKILL a -coordinate run and its one worker once
# the ledger holds 3 commits, then rerun the coordinator on the same
# -ledger with a fresh worker. It must resume the committed cells,
# finish with exit 0, remove the ledger and reproduce the
# uninterrupted CSV byte for byte.
WORKER="$WORKDIR/sweepworker"
LEDGER="$WORKDIR/ledger"
go build -o "$WORKER" ./cmd/sweepworker

# coordinate <name> starts a coordinator on the ledger and sets COORD
# to its pid and URL to the address it reports.
coordinate() {
    "$BIN" "${SWEEP_FLAGS[@]}" -coordinate 127.0.0.1:0 -ledger "$LEDGER" \
        -csv "$WORKDIR/$1.csv" >/dev/null 2>"$WORKDIR/$1.err" &
    COORD=$!
    URL=""
    for _ in $(seq 1 100); do
        URL=$(sed -n 's#.*coordinating .* on \(http://[0-9.:]*\).*#\1#p' "$WORKDIR/$1.err" | head -1)
        [ -n "$URL" ] && return 0
        kill -0 "$COORD" 2>/dev/null || break
        sleep 0.05
    done
    echo "resume drill: FAIL — coordinator ($1) never reported its address" >&2
    cat "$WORKDIR/$1.err" >&2
    exit 1
}

# ledger_commits counts the ledger's durable commits.
ledger_commits() {
    if [ -f "$LEDGER/ledger.ndjson" ]; then
        grep -c '"op":"commit"' "$LEDGER/ledger.ndjson" || true
    else
        echo 0
    fi
}

coordinate coord-crashed
"$WORKER" -coordinator "$URL" -quiet 2>"$WORKDIR/worker1.err" &
WPID=$!
for _ in $(seq 1 600); do
    [ "$(ledger_commits)" -ge 3 ] && break
    if ! kill -0 "$COORD" 2>/dev/null; then
        kill -KILL "$WPID" 2>/dev/null || true
        echo "resume drill: FAIL — the coordinator finished before it could be killed; grow the grid" >&2
        exit 1
    fi
    sleep 0.05
done
kill -KILL "$COORD" "$WPID" 2>/dev/null || true
wait "$COORD" "$WPID" 2>/dev/null || true
if [ "$(ledger_commits)" -lt 3 ]; then
    echo "resume drill: FAIL — the ledger held $(ledger_commits) commits, want >= 3, when the coordinator was killed" >&2
    exit 1
fi
echo "resume drill: SIGKILLed the coordinator and its worker; ledger holds $(wc -l <"$LEDGER/ledger.ndjson") lines"

coordinate coord-resumed
"$WORKER" -coordinator "$URL" -quiet 2>"$WORKDIR/worker2.err" &
WPID=$!
set +e
wait "$COORD"
STATUS=$?
wait "$WPID"
WSTATUS=$?
set -e
if [ "$STATUS" -ne 0 ] || [ "$WSTATUS" -ne 0 ]; then
    echo "resume drill: FAIL — resumed coordinator exited $STATUS, its worker $WSTATUS; want 0 and 0" >&2
    cat "$WORKDIR/coord-resumed.err" "$WORKDIR/worker2.err" >&2
    exit 1
fi
K=$(sed -n 's#.*resuming \([0-9]*\)/54 cells.*#\1#p' "$WORKDIR/coord-resumed.err" | head -1)
if [ -z "$K" ] || [ "$K" -lt 1 ]; then
    echo "resume drill: FAIL — resumed coordinator did not report resuming K/54 cells with K >= 1" >&2
    cat "$WORKDIR/coord-resumed.err" >&2
    exit 1
fi
if [ -e "$LEDGER" ]; then
    echo "resume drill: FAIL — ledger not removed after a complete grid" >&2
    exit 1
fi
if ! cmp -s "$WORKDIR/clean.csv" "$WORKDIR/coord-resumed.csv"; then
    echo "resume drill: FAIL — resumed coordinator's CSV differs from the uninterrupted run:" >&2
    diff "$WORKDIR/clean.csv" "$WORKDIR/coord-resumed.csv" >&2 || true
    exit 1
fi
echo "resume drill: coordinator arm passed — resumed $K/54 cells from the ledger"
echo "resume drill: PASS — both resumed CSVs byte-identical to the uninterrupted run"
