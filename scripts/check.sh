#!/bin/sh
# Full pre-merge gate: gofmt, vet, build, the complete test suite under
# the race detector, the benchmark module's vet and tests, and a short
# native-fuzz smoke of the decoder and requantizer. Equivalent to
# `make check` for environments without make.
set -eux

cd "$(dirname "$0")/.."

# Assignment first so a failing gofmt itself (missing binary, parse
# error) aborts under set -e instead of vacuously passing the gate.
unformatted=$(gofmt -l .)
test -z "$unformatted"
go vet ./...
go build ./...
# 32-bit cross-compile gate (catches int-overflow bugs like the PNG
# width*height pixel-cap bypass).
GOARCH=386 go build ./...
GOARCH=386 go vet ./...
go test -race ./...
# perfbench/ is its own module, so the root ./... never compiles it.
(cd perfbench && go vet ./... && go test ./...)
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5s ./internal/jpegcodec
go test -run '^$' -fuzz '^FuzzDecodeSharded$' -fuzztime 5s ./internal/jpegcodec
go test -run '^$' -fuzz '^FuzzRequantize$' -fuzztime 5s ./internal/jpegcodec
go test -run '^$' -fuzz '^FuzzDecodeProgressive$' -fuzztime 5s ./internal/jpegcodec
go test -run '^$' -fuzz '^FuzzProfileDecode$' -fuzztime 5s ./internal/profile
go test -run '^$' -fuzz '^FuzzParseIndex$' -fuzztime 5s ./internal/profilehub
