#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload color-knn --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, WAL directories, span files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here="$root/e2ebench"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

if ! (cd "$here" && go build -o "$out/e2ebench" .) >&2; then
	echo "e2ebench: build failed (the benchmark needs the emdsearch sources one directory up)" >&2
	exit 2
fi

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
source=$(find . -name '*.go' -not -path './.bench_build/*' -print0 | LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-16)
exec "$out/e2ebench" --scratch "$out" --commit "$commit" --source "$source" "$@"
