#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes, Go's build cache included, stays under
# .bench_build at the checkout root. The benchmark module replaces the
# engine module with the checkout root, so outside a full checkout the
# build fails and nothing is measured.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
