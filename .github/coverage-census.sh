#!/usr/bin/env bash
# Coverage census of the shipped runs: which functions of the library no
# CI command, example or benchmark workload reaches. It builds
# noftlbench, the six examples and the benchmark binary with coverage
# over every package of the module, runs CI's bench-smoke commands (the
# bench-smoke job of .github/workflows/ci.yml), every example and the
# benchmark's four workloads for 1 s each, and prints the functions that
# ran none of their statements ("0.0%"). Every file it writes lives in
# one temporary directory, removed on exit.
#
# It gates nothing: a percentage gate would reward adding runs, not
# removing code. A function it lists is a mechanism no shipped run
# exercises: reach it from a committed run, or delete it.
#
# Usage: bash .github/coverage-census.sh   (a few minutes on two cores)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export GOCOVERDIR="$tmp/cov"
mkdir -p "$GOCOVERDIR" "$tmp/bin" "$tmp/run"
cover=(-cover -coverpkg=noftl/...)

go build -C "$root" "${cover[@]}" -o "$tmp/bin/noftlbench" ./cmd/noftlbench
for d in "$root"/examples/*/; do
	name="$(basename "$d")"
	go build -C "$root" "${cover[@]}" -o "$tmp/bin/example-$name" "./examples/$name"
done
go build -C "$root/benchmark" "${cover[@]}" -o "$tmp/bin/benchmark" .

cd "$tmp/run"
nb="$tmp/bin/noftlbench"
{
	"$nb" -exp all -measure-s 1 -workers 8 -drive-mb 96 -dies 1,2
	"$nb" -exp sched -dies 4 -drive-mb 24 -workers 8 -measure-s 2 -json bench-sched.json
	"$nb" -exp sched -dies 4 -drive-mb 24 -workers 8 -measure-s 2 -obs-dir obs-sched
	"$nb" -exp htap -workers 8 -frames 192 -measure-s 2 -json bench-htap.json
	"$nb" -exp headline -measure-s 2 -workers 8 -drive-mb 96 -json bench-paper.json
	"$nb" -exp qos -dies 4 -drive-mb 32 -workers 8 -measure-s 2 -qos-low-deadline-ms 3 \
		-json bench-qos.json -obs-dir obs-qos
	"$nb" -exp serve -serve-clients 200 -serve-rows 4096 -measure-s 2 -json bench-serve.json
	"$nb" -exp serve -serve-clients 200 -serve-rows 4096 -measure-s 2 -obs-dir obs-serve
	for ex in "$tmp"/bin/example-*; do
		"$ex"
	done
	# htap_scan's 1-s window holds too few queries for its own tail check,
	# so it exits 1; its counters are written all the same.
	for w in tpcb_native htap_scan serve_kv dev_pattern; do
		"$tmp/bin/benchmark" -out "$tmp/run/benchmark-out" -workload "$w" -seconds 1 || true
	done
} >/dev/null

go tool covdata percent -i="$GOCOVERDIR" | awk '{ print "covered:", $0 }' >&2
go tool covdata func -i="$GOCOVERDIR" | awk '$NF == "0.0%"'
