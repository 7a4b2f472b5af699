#!/usr/bin/env bash
# Builds tacoserve and perfbench from the checkout in the current directory,
# then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload trace|recalc|tenants --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (Go build cache, binaries, spill
# files, logs, span dumps) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tacoserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a taco checkout (go.mod or cmd/tacoserve missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/tacoserve" ./cmd/tacoserve
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -tacoserve "$build/bin/tacoserve" -work "$build/run" "$@"
