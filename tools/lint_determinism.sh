#!/usr/bin/env bash
# Determinism lint: the simulator must produce bit-identical results for
# a given (config, seed), or the sweep runner's figure caches and the
# hmgcheck counterexample traces stop being reproducible.
#
# The analysis itself lives in hmglint (`hmglint --determinism`,
# src/verify/lint/determinism.cc): a token-level C++ analyzer that
# strips comments and string literals, tracks unordered containers
# across the tree, and flags *iteration* (not just declaration), banned
# entropy sources, float accumulation in hash order, shared mutable
# state in src/sim/, and stale `det-ok:` suppressions. This script is
# the stable entry point CI and the `determinism_lint` ctest call; it
# finds a built hmglint and delegates.
#
# An unbuilt tree fails with a named error rather than running a weaker
# check: build hmglint first (any preset's build dir will do).
set -euo pipefail

cd "$(dirname "$0")/.."

# --- locate hmglint: $HMGLINT, then the conventional build dirs -------
LINT="${HMGLINT:-}"
if [ -z "$LINT" ]; then
    for cand in build/tools/hmglint build-*/tools/hmglint; do
        if [ -x "$cand" ]; then
            LINT="$cand"
            break
        fi
    done
fi

if [ -z "$LINT" ] || [ ! -x "$LINT" ]; then
    echo "determinism lint: no hmglint binary found (looked at \$HMGLINT," \
         "build/tools/hmglint, build-*/tools/hmglint): build hmglint first" >&2
    exit 2
fi

exec "$LINT" --determinism --root .
