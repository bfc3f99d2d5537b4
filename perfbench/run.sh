#!/usr/bin/env bash
# Builds the benchmark and the tedd daemon from the checkout's sources
# into .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload kernel_shapes --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, serving fixtures, trace files) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
# Keep the go command's cache, module path, settings and telemetry in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# Logs go to stderr: the last line of stdout is the benchmark's result.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/tedd" repro/cmd/tedd) >&2
exec "$out/bin/perfbench" --tedd "$out/bin/tedd" --out "$out" "$@"
