#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload fleet-rr --seed 1 --seconds 25 --trace 0
#
# --trace 0 runs the end-to-end command (public facade only); --trace 1 runs
# the traced per-layer command. Binaries and the Go build cache go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac

cmd=e2e
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case ${args[i]} in
	--trace=1) cmd=traced ;;
	--trace) [[ ${args[i + 1]:-0} == 1 ]] && cmd=traced ;;
	esac
done

# Keep the toolchain's caches, temporary files and telemetry inside the build
# directory, and never reach for the network.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench-$cmd" "./cmd/$cmd") >&2
exec "$out/perfbench-$cmd" "$@"
