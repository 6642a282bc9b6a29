#!/bin/sh
# Repo health gate: formatting, vet, the full test suite, and the race
# detector on the packages that train, evaluate or serve concurrently.
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l . 2>/dev/null)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...
# bench/ is its own module: tier-1 never builds it, yet it compiles
# against the serving APIs.
(cd bench && go vet ./...)

echo "== doc lint (operator-facing packages) =="
go run ./scripts/doclint internal/sessionid internal/tlsproxy internal/squidlog internal/features internal/core internal/serve internal/faultinject internal/ml/compiled internal/ingest internal/netflow internal/pcap internal/intern internal/bytesconv internal/cluster

echo "== go test =="
go test ./...

echo "== go test -race (concurrent packages, incl. faultinject chaos tests and qoeproxy shard invariance) =="
# -timeout 20m: the experiments paper-shape suite takes ~10 wall-clock
# minutes under the race detector on a 1-core host, right at go test's
# default timeout.
go test -race -timeout 20m ./internal/ml/... ./internal/core ./internal/dataset ./internal/tlsproxy ./internal/metrics ./internal/experiments ./internal/features ./internal/faultinject ./internal/intern ./internal/ingest ./internal/squidlog ./internal/bytesconv ./internal/cluster ./internal/serve ./cmd/qoeproxy

echo "== go test -race -count=10 (sink tests: per-client order rests on each sink's mutex) =="
go test -race -count=10 -run '^TestSink' ./cmd/qoeproxy

echo "== go test -race -count=10 (shard set and model tests: ingest commits race classification passes and eviction sweeps) =="
go test -race -count=10 -run '^TestShards|^TestModel' ./internal/serve

echo "== go test -race -count=10 (fresh-queue, block-pass and deadline-pass tests: early passes race ingest commits) =="
go test -race -count=10 -run '^TestFresh' ./internal/serve
go test -race -count=10 -run '^TestBlockPass|^TestDeadline' ./cmd/qoeproxy

echo "== go test -race -count=5 (reload tests: a bundle swap races the passes that score through serve.Model) =="
go test -race -count=5 -run '^TestReload' ./cmd/qoeproxy

echo "== go test -race -count=10 (Squid source tests: handler order crosses the ordering-to-handler channel) =="
go test -race -count=10 -run '^TestSquid' ./internal/ingest

echo "== feature benchmarks (smoke) =="
go test -run '^$' -bench Feature -benchtime 1x . ./internal/features

echo "== serving benchmarks (smoke: interpreted forest vs compiled one-row and 512-row blocks, sharded ingest) =="
go test -run '^$' -bench . -benchtime 1x ./internal/ml/compiled
go test -run '^$' -bench ConcurrentIngest -benchtime 100x ./cmd/qoeproxy

echo "== ingest benchmarks (smoke) + zero-alloc parser gate =="
go test -run '^$' -bench IngestEndToEnd -benchtime 1x ./internal/ingest
# The byte parser is the per-line hot path; any allocation is a
# regression.
parse_out=$(go test -run '^$' -bench 'SquidParse/bytes' -benchmem ./internal/squidlog)
echo "$parse_out"
if ! echo "$parse_out" | grep -q "	       0 allocs/op"; then
	echo "ParseLineBytes allocates; the zero-alloc ingest gate failed"
	exit 1
fi

echo "== zero-alloc reorder-buffer and sessionizer gates =="
# One op of SquidReorder is one record through the Squid reorder buffer
# (both events added, everything behind the watermark released); one op
# of StreamerPushInto is one transaction through the sessionizer with a
# reused decision slice. Both run once per record on the delivery path,
# so any steady-state allocation is a regression.
reorder_out=$(go test -run '^$' -bench 'SquidReorder' -benchmem ./internal/ingest)
echo "$reorder_out"
if ! echo "$reorder_out" | grep -q "	       0 allocs/op"; then
	echo "the Squid reorder buffer allocates; the zero-alloc reorder gate failed"
	exit 1
fi
push_out=$(go test -run '^$' -bench 'StreamerPushInto' -benchmem ./internal/sessionid)
echo "$push_out"
if ! echo "$push_out" | grep -q "	       0 allocs/op"; then
	echo "Streamer.PushInto allocates; the zero-alloc sessionizer gate failed"
	exit 1
fi

echo "== zero-alloc commit-path gate =="
# One op is a 256-record batch through onConnOpen + onTransactionBatch
# with an -out sink over resident clients, so a single allocation per
# batch — let alone per record — fails the gate.
commit_out=$(go test -run '^$' -bench 'CommitPath' -benchmem ./cmd/qoeproxy)
echo "$commit_out"
if ! echo "$commit_out" | grep -q "	       0 allocs/op"; then
	echo "the ingest commit path allocates; the zero-alloc commit-path gate failed"
	exit 1
fi

echo "== zero-alloc clean-classify-pass gate =="
# One op is a classification pass over 4,096 resident clients that all
# hold a verdict and have had no commit since: the steady state must
# neither score a row (the benchmark fails itself if one is) nor
# allocate.
clean_out=$(go test -run '^$' -bench 'ClassifyPassClean' -benchmem ./cmd/qoeproxy)
echo "$clean_out"
if ! echo "$clean_out" | grep -q "	       0 allocs/op"; then
	echo "a classification pass over unchanged clients allocates; the zero-alloc clean-pass gate failed"
	exit 1
fi

echo "== zero-alloc dirty-classify-pass gates =="
# One op of ClassifyPassDirty is a classification pass over 4,096
# resident clients that have all changed since their last verdict: every
# row is rebuilt from the client's transactions and scored (the
# benchmark fails itself if one is skipped), through per-shard scratch
# that must not allocate. ClassifyPassDirtyLong is the same pass over
# clients holding 4,096-transaction sessions, where the row's order
# statistics run on the selection path. Each of the two must report
# 0 allocs/op.
dirty_out=$(go test -run '^$' -bench 'ClassifyPassDirty' -benchmem ./cmd/qoeproxy)
echo "$dirty_out"
if ! echo "$dirty_out" | awk '
$1 ~ /^BenchmarkClassifyPassDirty(Long)?-/ {
	runs++
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "allocs/op" && $i != "0") { print $1 ": " $i " allocs/op"; bad = 1 }
	}
}
END {
	if (runs != 2) { print "expected 2 ClassifyPassDirty results, got " runs; exit 1 }
	exit bad
}'; then
	echo "a classification pass over changed clients allocates; the zero-alloc dirty-pass gates failed"
	exit 1
fi

echo "== replay delivery memory gate =="
# One op replays a loaded workload (ingest.BatchSource.Run) into no-op
# callbacks, at two record counts and two worker counts. Delivery sorts
# two 16-byte event keys per record over the workload it is given, so
# more than 40 allocated B/record, or allocs/op that grow with the
# record count, means per-record copies are back.
replay_out=$(go test -run '^$' -bench 'BatchSourceRun' -benchmem ./internal/ingest)
echo "$replay_out"
if ! echo "$replay_out" | awk '
$1 ~ /^BenchmarkBatchSourceRun\// {
	n = $1; sub(/.*records=/, "", n); sub(/\/.*/, "", n); n += 0
	w = $1; sub(/.*workers=/, "", w); sub(/-.*/, "", w)
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "B/record") b = $i + 0
		if ($(i + 1) == "allocs/op") a = $i + 0
	}
	runs++
	if (b > 40) { print $1 ": " b " B/record exceeds 40"; bad = 1 }
	if (!(w in lo) || n < lo[w]) { lo[w] = n; loA[w] = a }
	if (!(w in hi) || n > hi[w]) { hi[w] = n; hiA[w] = a }
}
END {
	if (runs < 4) { print "expected 4 BatchSourceRun results, got " runs; exit 1 }
	for (w in lo) {
		# A few allocations of slack absorb runtime noise; one per
		# record or per client would add thousands.
		if (hiA[w] > loA[w] + 8) {
			print "workers=" w ": allocs/op grow from " loA[w] " at " lo[w] " records to " hiA[w] " at " hi[w]
			bad = 1
		}
	}
	exit bad
}'; then
	echo "the replay delivery allocates per record; the replay memory gate failed"
	exit 1
fi

echo "== benchmark ledger (bench/ unit tests + 1/200-scale smoke of every workload) =="
(cd bench && go test ./...)

echo "== qoeproxy smoke (/metrics, /healthz, squid-log tail, model hot reload, SIGTERM drain, two-member fleet + snapshot hand-off) =="
go run ./scripts/smoke

echo "== README CLI pipeline (tracegen dataset -> qoeinfer -save -> tracegen stream -> qoeinfer -score) =="
# README's "CLI pipeline" block at small scale, so the commands it
# documents cannot drift from the CLIs.
pipe=$(mktemp -d)
trap 'rm -rf "$pipe"' EXIT
go build -o "$pipe/bin/" ./cmd/tracegen ./cmd/qoeinfer
"$pipe/bin/tracegen" -what dataset -sessions 20 -out "$pipe/data" >/dev/null
"$pipe/bin/qoeinfer" -txns "$pipe/data/transactions.csv" -service Svc1 -train-sessions 60 -trees 10 -save "$pipe/model.json" >/dev/null
"$pipe/bin/tracegen" -what stream -sessions 10 -out "$pipe/stream.csv"
score_out=$("$pipe/bin/qoeinfer" -txns "$pipe/stream.csv" -score -model "$pipe/model.json")
echo "$score_out" | tail -n 6
if ! echo "$score_out" | grep -q '^session starts recovered: [0-9]*/10$'; then
	echo "qoeinfer -score printed no 'session starts recovered' line"
	exit 1
fi

echo "All checks passed."

# The two numbers the simplification round tracks, printed (not gated)
# so every PR shows its direction.
echo "== size =="
loc=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)
flags=$(grep -c '^	fs\.[A-Za-z0-9]*Var(' cmd/qoeproxy/main.go)
echo "non-test Go lines outside bench/: $loc"
echo "cmd/qoeproxy/main.go lines: $(wc -l < cmd/qoeproxy/main.go)"
echo "qoeproxy flags (registerFlags): $flags"
echo "commands under cmd/: $(find cmd -mindepth 1 -maxdepth 1 -type d | wc -l)"
