#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload serve_read --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, span files) stays under .bench_build/
# in that root. The build needs the repository's own sources next to
# perfbench/ (go.mod replaces geonet with ../), so outside a full
# checkout it fails and the script exits non-zero without a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
