#!/usr/bin/env bash
# Builds the benchmark and the two CLIs it drives (fic, sigmond) from the
# sources of the checkout it is run in, then runs it. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload e1_campaign --seed 1 --seconds 10 --trace 0
#
# Every file it writes stays under the build directory ($CARGO_TARGET_DIR
# when set, else .bench_build): the Go build cache, the binaries and the
# benchmark's scratch journals. Builds are incremental, so only the first
# run in a checkout pays for compiling.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin"

go build -o "$out/bin/" ./cmd/fic ./cmd/sigmond
(cd benchmark && go build -o "$out/bin/bench" .)

exec "$out/bin/bench" -bin "$out/bin" -work "$out/work" "$@"
