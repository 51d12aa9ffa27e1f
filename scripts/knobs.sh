#!/bin/sh
# Prints the repo's knob count: the exported fields of exported
# *Options/*Config structs under internal/ plus the exported
# functional-option constructors (func F(...) Option). A value no
# non-test caller sets is a named constant or an unexported field, not a
# knob (DESIGN §11); run this at the parent commit and at the change and
# compare, as with scripts/loc.sh. Given a maximum, it also exits 1 when
# the count is above it, so a change that adds an option raises the
# ceiling in the same diff.
#
# Usage: scripts/knobs.sh [max]  (from anywhere inside the checkout)
set -eu

cd "$(dirname "$0")/.."

n=$(find internal -name '*.go' -not -name '*_test.go' | sort | xargs awk '
/^type [A-Z][A-Za-z0-9_]* struct \{/ {
	inside = ($2 ~ /(Options|Config)$/)
	next
}
inside && /^}/ { inside = 0; next }
# One tab deep: a field of this struct, not of a nested literal type.
# "A, B T" declares two fields.
inside && /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)*([ \t]|$)/ {
	names = $0
	sub(/^\t/, "", names)
	sub(/[ \t].*$/, "", names)
	n += gsub(/,/, ",", names) + 1
}
/^func [A-Z][A-Za-z0-9_]*\(.*\) \*?[A-Za-z0-9_.]*Option \{/ { n++ }
END { print n + 0 }
')
echo "$n"
if [ $# -gt 0 ] && [ "$n" -gt "$1" ]; then
	echo "knobs: $n options, above the ceiling of $1" >&2
	exit 1
fi
