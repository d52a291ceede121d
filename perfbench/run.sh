#!/usr/bin/env bash
# Builds cmd/sfaserve and the perfbench program from the checkout this is
# run in, then runs the program with the given arguments. Run it from the
# repository root:
#
#	bash perfbench/run.sh --workload all --seed 1 --seconds 40 --trace 0
#	bash perfbench/run.sh compare old.log new.log
#
# Everything the build writes (Go build cache, binaries, telemetry)
# stays under .bench_build/ in the checkout root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sfaserve" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sfaserve and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/sfaserve" ./cmd/sfaserve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/sfaserve" "$@"
