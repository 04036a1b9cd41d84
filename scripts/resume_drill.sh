#!/usr/bin/env bash
# Resume drill: run a paper-scale sweep, SIGTERM it mid-grid, resume
# from the checkpoint, and verify the resumed CSV is byte-identical to
# an uninterrupted run. CI runs this as the recovery acceptance test;
# run it locally after touching the sweep scheduler, the resume
# journal, or compactsim's signal handling.
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
echo "resume drill: PASS — resumed CSV byte-identical to the uninterrupted run"
