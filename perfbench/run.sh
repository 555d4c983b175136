#!/usr/bin/env bash
# Builds and runs the benchmark. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload build|serve --seed N --seconds S --trace 0|1
#
# --trace 0 runs cmd/bench, the end-to-end runner, which uses only the
# socyield facade and yieldd's HTTP handler. --trace 1 runs cmd/layers,
# the traced per-layer runner. Everything the build and the run write
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
# The commit, when the checkout is a git repository of its own.
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace) trace="${args[i + 1]:-}" ;;
	--trace=*) trace="${args[i]#--trace=}" ;;
	esac
done
cmd=bench
if [ "$trace" = 1 ]; then
	cmd=layers
fi

(cd "$root/perfbench" && go build -o "$out/bin/$cmd" "./cmd/$cmd")
exec "$out/bin/$cmd" "$@"
