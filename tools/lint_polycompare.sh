#!/bin/sh
# lint-polycompare: no polymorphic compares in the integer-kernel hot paths.
#
# Polymorphic `compare` (= Stdlib.compare) walks the runtime representation
# of its arguments: on boxed floats and tuples it is the single largest cost
# of a million-element sort, and on abstract types it is silently wrong.
# The hot-path directories (lib/graphlib, lib/congest, lib/shortcut) must
# use monomorphic comparators — Int.compare, Float.compare, String.compare,
# or an explicit record/pair comparator.  This grep fails the build on any
# new bare `compare` / `Stdlib.compare` identifier there (word matches only:
# `Int.compare` has a `.` before the word and does not match; names like
# `compare_foo` or words like `comparison` do not match either).
set -eu
cd "$(dirname "$0")/.."
matches=$(grep -nE '(^|[^.[:alnum:]_])(compare|Stdlib\.compare)([^[:alnum:]_]|$)' \
  lib/graphlib/*.ml lib/congest/*.ml lib/shortcut/*.ml || true)
if [ -n "$matches" ]; then
  echo "lint-polycompare: polymorphic compare in hot-path directories:" >&2
  echo "$matches" >&2
  echo "lint-polycompare: use Int.compare / Float.compare / an explicit" >&2
  echo "monomorphic comparator instead (see DESIGN.md section 15)" >&2
  exit 1
fi
echo "lint-polycompare: OK (lib/graphlib, lib/congest, lib/shortcut free of polymorphic compare)"
