#!/bin/sh
# Repo verification gate: build, vet, the whole suite under the race
# detector, every replay / bit-exact gate twice in one process
# (-count=2 catches state leaking from one run into the next), and each
# deterministic table CLI run twice with byte-identical output.
set -eux

go build ./...
go vet ./...
go test -race ./...
go test -count=2 -run 'Deterministic|BitExact|ArmedWireFaultsFire|TracksMeasuredSimsec' ./internal/...

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/bagualu-serve ./cmd/bagualu-plan ./cmd/bagualu-pipe
for cli in 'bagualu-serve -fleet-only -replicas 4 -mtbf 30' 'bagualu-plan -seed 7' 'bagualu-pipe'; do
	"$bin"/$cli -csv > "$bin/a.csv"
	"$bin"/$cli -csv > "$bin/b.csv"
	cmp "$bin/a.csv" "$bin/b.csv"
done
