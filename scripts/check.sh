#!/usr/bin/env bash
# Full local gate: configure + build (warnings are errors) and the
# tier-1 tests — the same build and test steps CI runs on every push.
#
# Usage: scripts/check.sh [builddir]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"

cmake -B "$BUILD" -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j

echo "check.sh: build and tests green"
