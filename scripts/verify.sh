#!/bin/sh
# Tier-1 verification for the 6G-XSec repo. This script is the canonical
# recipe — ROADMAP.md, README.md, and .claude/skills/verify/SKILL.md all
# point here, so change it in one place only.
#
# Usage: scripts/verify.sh  (from the repo root; 6 min 51 s cold on a
# 2-CPU host, test cache emptied, measured at PR 24 — the -race test run
# is all of it, and internal/core, 364 s inside that run, is its floor)
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
