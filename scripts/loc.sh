#!/bin/sh
# Prints the repo's non-test Go line count outside benchmark/ — the
# number a simplification PR's "LOC went down" claim is checked against.
# Run it at the parent commit and at the change and compare.
# .bench_build/ is skipped because a running benchmark build keeps
# generated .go files in its GOTMPDIR there.
#
# Usage: scripts/loc.sh  (from anywhere inside the checkout)
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' \
	-not -path './.bench_build/*' | xargs cat | wc -l
