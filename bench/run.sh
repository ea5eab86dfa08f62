#!/usr/bin/env bash
# Builds the benchmark and the root package's test binary (the layer
# probes run its microbenchmarks) from source, then runs the benchmark.
# Run it from the repository root; the arguments pass through:
#
#   bash bench/run.sh --workload table3-paper --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, temporary files, the
# binaries, and the reports, spans and profiles in results/.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/numabench" .) >&2
go test -c -o "$out/numasim.test" . >&2
exec "$out/numabench" -outdir "$out/results" -testbin "$out/numasim.test" "$@"
