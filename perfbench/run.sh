#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, keeping every build and run artefact under .bench_build/.
#
#	bash perfbench/run.sh --workload arrival --seed 1 --seconds 10 --trace 0
#
# Without the repository's own sources next to perfbench/ the build fails and
# so does this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters and env file under the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --root "$root" "$@"
