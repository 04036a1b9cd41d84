#!/usr/bin/env bash
# Serve drill: the service-level recovery acceptance test. Start
# compactd with a data directory, submit a sweep job over HTTP, SIGTERM
# the server once the job's checkpoint journal holds at least one cell,
# restart on the same directory, and require (a) the job resumes and
# finishes with restored cells, (b) a third server on the same
# directory adopts the settled job and serves its /result, /heatmap,
# /heapstats and /events byte for byte as the second did, and (c) its
# result CSV is byte-identical to the same spec run uninterrupted on a
# fresh server. Run it locally after touching internal/service, the
# sweep scheduler, or the resume journal; CI runs it in the service
# job.
#
# Usage: scripts/serve_drill.sh [workdir]
# A workdir given is always kept; one the drill makes is removed when
# it passes and kept, its path printed, when it fails.
set -euo pipefail

if [ $# -ge 1 ]; then
    WORKDIR=$1
else
    WORKDIR=$(mktemp -d)
    trap 'if [ $? -eq 0 ]; then rm -rf "$WORKDIR"; else echo "serve drill: work directory kept: $WORKDIR" >&2; fi' EXIT
fi
BIN="$WORKDIR/compactd"
DATA="$WORKDIR/data"
PORT="${COMPACTD_PORT:-18321}"
BASE="http://127.0.0.1:$PORT"
# A workload program (not a paper adversary, which terminates on its
# own schedule): five sequential cells of a few hundred ms each, so the
# SIGTERM lands mid-grid with cells still owed.
SPEC='{"program":"random","manager":"first-fit","m":1024,"n":16,"cs":[16,32,64,128,256],"rounds":4000,"seed":5,"parallelism":1,"stream":"off"}'

echo "serve drill: workdir $WORKDIR, port $PORT"
go build -o "$BIN" ./cmd/compactd

wait_ready() {
    for _ in $(seq 1 100); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.05
    done
    echo "serve drill: FAIL — server on $BASE never became healthy" >&2
    exit 1
}

# The four bodies a terminal job serves.
BODIES="result heatmap heapstats events"

fetch_bodies() { # fetch_bodies <job-id> <dir>
    mkdir -p "$2"
    for b in $BODIES; do
        curl -sf "$BASE/v1/jobs/$1/$b" >"$2/$b"
    done
}

wait_done() { # wait_done <job-id> <logfile-tag>
    for _ in $(seq 1 600); do
        STATUS=$(curl -sf "$BASE/v1/jobs/$1" || true)
        case "$STATUS" in
        *'"state":"done"'*) printf '%s' "$STATUS"; return 0 ;;
        *'"state":"failed"'* | *'"state":"canceled"'*)
            echo "serve drill: FAIL — job $1 ($2) settled badly: $STATUS" >&2
            exit 1 ;;
        esac
        sleep 0.05
    done
    echo "serve drill: FAIL — job $1 ($2) never finished" >&2
    exit 1
}

# --- Phase 1: start durable, submit, SIGTERM mid-flight. ---
"$BIN" -addr "127.0.0.1:$PORT" -data "$DATA" >"$WORKDIR/serve1.log" 2>&1 &
PID=$!
wait_ready

RESP=$(curl -sf -X POST -d "$SPEC" "$BASE/v1/jobs")
JOB=$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$JOB" ]; then
    echo "serve drill: FAIL — submit returned no job ID: $RESP" >&2
    exit 1
fi
echo "serve drill: submitted $JOB"

JOURNAL="$DATA/jobs/$JOB/journal.ckpt"
for _ in $(seq 1 200); do
    # Pull the plug only once the journal holds a completed cell, so
    # the restart has something to restore.
    if [ -s "$JOURNAL" ]; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "serve drill: FAIL — server died before the first checkpoint" >&2
        cat "$WORKDIR/serve1.log" >&2
        exit 1
    fi
    sleep 0.02
done
if [ ! -s "$JOURNAL" ]; then
    echo "serve drill: FAIL — no checkpoint appeared; job finished too fast or never ran" >&2
    exit 1
fi
kill -TERM "$PID"
if ! wait "$PID"; then
    echo "serve drill: FAIL — SIGTERM shutdown exited non-zero" >&2
    cat "$WORKDIR/serve1.log" >&2
    exit 1
fi
if [ ! -s "$JOURNAL" ]; then
    echo "serve drill: FAIL — journal did not survive the shutdown" >&2
    exit 1
fi
if [ -e "$DATA/jobs/$JOB/status.json" ]; then
    echo "serve drill: FAIL — shutdown persisted a terminal status; the job would not resume" >&2
    exit 1
fi
echo "serve drill: interrupted with journal $(wc -c <"$JOURNAL") bytes"

# --- Phase 2: restart on the same directory; the job must resume. ---
"$BIN" -addr "127.0.0.1:$PORT" -data "$DATA" >"$WORKDIR/serve2.log" 2>&1 &
PID=$!
wait_ready
FINAL=$(wait_done "$JOB" resumed)
case "$FINAL" in
*'"restored":'[1-9]*) ;;
*)
    echo "serve drill: FAIL — resumed job restored nothing: $FINAL" >&2
    exit 1 ;;
esac
fetch_bodies "$JOB" "$WORKDIR/settled"
kill -TERM "$PID"
wait "$PID"
echo "serve drill: resumed and finished ($FINAL)"

# --- Phase 3: restart once more; the settled job is adopted, not re-run. ---
"$BIN" -addr "127.0.0.1:$PORT" -data "$DATA" >"$WORKDIR/serve3.log" 2>&1 &
PID=$!
wait_ready
fetch_bodies "$JOB" "$WORKDIR/adopted"
kill -TERM "$PID"
wait "$PID"
for b in $BODIES; do
    if ! cmp -s "$WORKDIR/settled/$b" "$WORKDIR/adopted/$b"; then
        echo "serve drill: FAIL — the adopted job's /$b differs from what the settling server served:" >&2
        diff "$WORKDIR/settled/$b" "$WORKDIR/adopted/$b" >&2 || true
        exit 1
    fi
done
echo "serve drill: adopted job serves its four bodies byte for byte ($(wc -l <"$WORKDIR/adopted/events") stream lines)"

# --- Phase 4: the reference — same spec, uninterrupted, fresh server. ---
"$BIN" -addr "127.0.0.1:$PORT" -data "$WORKDIR/data-clean" >"$WORKDIR/serve4.log" 2>&1 &
PID=$!
wait_ready
RESP=$(curl -sf -X POST -d "$SPEC" "$BASE/v1/jobs")
REF=$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
wait_done "$REF" clean >/dev/null
curl -sf "$BASE/v1/jobs/$REF/result" >"$WORKDIR/clean.csv"
kill -TERM "$PID"
wait "$PID"

if ! cmp -s "$WORKDIR/clean.csv" "$WORKDIR/settled/result"; then
    echo "serve drill: FAIL — resumed result differs from the uninterrupted run:" >&2
    diff "$WORKDIR/clean.csv" "$WORKDIR/settled/result" >&2 || true
    exit 1
fi
echo "serve drill: PASS — resumed result byte-identical to the uninterrupted run"
