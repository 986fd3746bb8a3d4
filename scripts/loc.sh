#!/bin/sh
# Non-test Go lines per package and in total, outside benchmark/ and the
# linter's fixture corpus — the number simplicity PRs quote in CHANGES.md.
# Run from the repo root (make loc).
set -eu
find . -name '*.go' ! -name '*_test.go' \
	! -path './benchmark/*' ! -path './internal/lint/testdata/*' ! -path './.git/*' |
	sort | xargs wc -l | awk '
	$2 == "total" { next }
	{ dir = $2; sub(/\/[^\/]*$/, "", dir); n[dir] += $1; total += $1 }
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
