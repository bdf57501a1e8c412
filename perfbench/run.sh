#!/usr/bin/env bash
# Builds the benchmark and mird from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload region|preprocess|standing|all \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes goes
# under $CARGO_TARGET_DIR (default .bench_build), including the Go build
# cache, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
bin=$build/perfbench
mkdir -p "$bin"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
    GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config
(cd "$root/perfbench" && go build -o "$bin/perfbench" . && go build -o "$bin/mird" mir/cmd/mird) >&2

exec "$bin/perfbench" -mird "$bin/mird" -out "$bin/run" "$@"
