#!/usr/bin/env bash
# Mutant ledger: applies each one-line mutant of scripts/mutants.tsv
# (or the table given) to a temporary copy of the tree, one at a time,
# and runs the test the row names, which must fail.
#
#   scripts/mutants.sh [table]
#
# It exits 1 when a named test passes on its mutant ("SURVIVED"), when
# a mutant no longer compiles ("BROKEN": it proves nothing), or when a
# row's line no longer reads as recorded ("STALE").
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
table=${1:-$root/scripts/mutants.tsv}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$work" -xf -

fail=0
rows=0
while IFS=$'\t' read -r file line orig repl pkg test _; do
	case $file in '' | '#'*) continue ;; esac
	rows=$((rows + 1))
	src="$work/$file"
	cp "$src" "$work/.orig"
	if ! ORIG="$orig" REPL="$repl" awk -v n="$line" '
		NR == n {
			text = $0
			sub(/^[ \t]+/, "", text)
			if (text != ENVIRON["ORIG"]) exit 1
			$0 = substr($0, 1, length($0) - length(text)) ENVIRON["REPL"]
			hit = 1
		}
		{ print }
		END { if (!hit) exit 1 }' "$work/.orig" >"$src"; then
		echo "STALE    $file:$line no longer reads: $orig"
		fail=1
	elif ! (cd "$work" && go test -count=1 -run '^$' "$pkg" >/dev/null 2>&1 </dev/null); then
		echo "BROKEN   $file:$line: $pkg does not build with: $repl"
		fail=1
	elif (cd "$work" && go test -count=1 -run "$test" "$pkg" >/dev/null 2>&1 </dev/null); then
		echo "SURVIVED $file:$line: $pkg $test passes with: $repl"
		fail=1
	else
		echo "killed   $file:$line by $pkg $test"
	fi
	cp "$work/.orig" "$src"
done <"$table"
echo "$rows mutants"
exit "$fail"
