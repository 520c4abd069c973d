#!/usr/bin/env bash
# Builds mmperf from source and runs it with the given flags, e.g.
#
#   bash cmd/mmperf/run.sh -workload census-ring -seed 1
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry files) goes under .bench_build at the repository root, which is
# also the working directory mmperf runs in.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/cmd/mmperf" && go build -o "$out/mmperf" .)
cd "$root"
exec "$out/mmperf" "$@"
