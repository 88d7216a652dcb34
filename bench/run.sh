#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: the Go build cache, the binary and every store directory live
# under .bench_build at the checkout's root (git-ignored).
#
#   bash bench/run.sh --workload fleet-saturate --seed 1 --seconds 12 --trace 0
#
# Arguments are passed through to the benchmark (see README.md here).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# bench/ is a module of its own whose go.mod points at the repository root
# (replace trips => ../), so this fails, as it must, where the root is absent.
(cd "$here" && go build -o "$build/trips-bench" .)
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/trips-bench" -tmp "$build/tmp" -commit "$commit" "$@"
