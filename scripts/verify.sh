#!/bin/sh
# Tier-1 verification for the 6G-XSec repo. This script is the canonical
# recipe — ROADMAP.md, README.md, and .claude/skills/verify/SKILL.md all
# point here, so change it in one place only.
#
# Usage: scripts/verify.sh  (from the repo root; about 7.5 min cold on a
# 2-CPU host — 7m23s measured at PR 21, test cache emptied — dominated by
# the -race test run: internal/core 223 s and internal/mobiwatch 93 s
# when run alone with -p 1, 371 s and 125 s before training skipped zero
# inputs and fitted both models side by side)
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> verify OK"
