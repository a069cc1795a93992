#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root. All
# build products — Go's build cache included — and all workbook files stay
# under .bench_build/ in the checkout; nothing outside it is read or written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/dsbench" .
cd "$root"
exec "$build/dsbench" "$@"
