#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and the span files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: run from a full checkout" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
# Keep every file the toolchain writes (build and module caches, temp
# files, telemetry under the user config dir) inside the checkout.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
commit=none
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi
exec "$out/perfbench" --root "$root" --out "$out" --commit "$commit" "$@"
