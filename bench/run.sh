#!/bin/bash
# Builds the benchmark and runs it with the arguments given, from bench/.
# The Go build cache and temporary files are kept under bench/out (ignored by
# git), so that a run reads and writes nothing outside its checkout; the first
# run in a checkout therefore compiles the standard library too.
set -eu
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o out/bench .
exec out/bench "$@"
