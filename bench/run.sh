#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. The Go build cache lives there too, so a run
# writes nothing outside the checkout.
#
# The benchmark runs pinned to one CPU where taskset exists (so it sees
# nproc = 1 and runs with GOMAXPROCS 1). On the shared 2-vCPU boxes this
# is sized for, waking a goroutine on the other vCPU costs a trip through
# the hypervisor: unpinned, null-mux spends 2.5x the CPU per op for fewer
# ops/s, and flips between regimes 30 % apart from one run to the next.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$root/.bench_build/kaas-bench" .
pin=()
if command -v taskset >/dev/null; then
	pin=(taskset -c 0)
fi
exec "${pin[@]}" "$root/.bench_build/kaas-bench" "$@"
