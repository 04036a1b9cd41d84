#!/usr/bin/env bash
# Net Go lines: prints the Go lines added, removed and net between a
# base revision and the working tree, for non-test files and _test.go
# files separately. Files under testdata/ are not counted. Uncommitted
# changes count, and so do untracked .go files (as added lines); a
# renamed file counts as removed at its old path and added at its new.
# CHANGES.md records this figure for every change.
#
# Usage: scripts/netlines.sh <base-revision>     (or: make netlines BASE=<rev>)
set -euo pipefail

base="${1:?usage: scripts/netlines.sh <base-revision>}"
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
	echo "netlines: unknown revision $base" >&2
	exit 2
fi

{
	git diff --numstat --no-renames "$base" -- '*.go'
	git ls-files --others --exclude-standard -- '*.go' | while IFS= read -r f; do
		printf '%d\t0\t%s\n' "$(wc -l <"$f")" "$f"
	done
} | awk -F '\t' -v base="$base" '
	$3 ~ /(^|\/)testdata\// { next }
	{
		k = ($3 ~ /_test\.go$/) ? 2 : 1
		add[k] += $1; del[k] += $2
	}
	END {
		name[1] = "non-test"; name[2] = "_test.go"
		printf "Go lines since %s (testdata/ excluded)\n", base
		printf "%-9s %8s %8s %8s\n", "", "added", "removed", "net"
		for (k = 1; k <= 2; k++)
			printf "%-9s %8d %8d %+8d\n", name[k], add[k], del[k], add[k] - del[k]
		printf "%-9s %8d %8d %+8d\n", "total", add[1] + add[2], del[1] + del[2], add[1] + add[2] - del[1] - del[2]
	}'
