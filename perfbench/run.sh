#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload mixed-durable --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, span logs and result records. No network access is needed or
# attempted. Without the repository's Go sources beside perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
out="$out/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off GOTELEMETRY=off

commit=unknown
if [ -d .git ] && command -v git >/dev/null; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

# Build to a private name, then rename, so concurrent runs never execute a
# half-written binary.
bin="$out/perfbench"
(cd perfbench && go build -buildvcs=false -trimpath -p 2 -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"

export PERFBENCH_COMMAND="bash perfbench/run.sh $*"
exec "$bin" -out "$out" -commit "$commit" "$@"
