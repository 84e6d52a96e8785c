#!/bin/sh
# Repo verification gate: build, vet, the whole suite under the race
# detector (which also diffs the fast R-tables against their goldens,
# cmd/bagualu TestGoldens), every replay / bit-exact gate twice in one
# process (-count=2 catches state leaking from one run into the next),
# the step benchmarks' allocation gates, the kernel packages without
# their assembly, the transcendental
# kernels on every float32 there is, and the slower
# deterministic R-tables regenerated and compared with their goldens —
# a compare that also fails on run-to-run drift.
set -eux

go build ./...
go vet ./...
# Formatting: every tracked Go file is gofmt-clean (tracked only, so the
# benchmark's .bench_build/ module cache is never scanned).
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then exit 1; fi
# Layering: internal/ckpt is the one package that knows checkpoint
# bytes and sits below train, serving links neither the trainer nor
# the corpus, the pipeline runner sits below the trainer that drives it
# (train imports pipe, never the reverse) and below the engine, and a
# communicator's supernode grouping is derived in mpi alone
# (Comm.Supernodes) — no other program code asks the topology. The
# process grid (internal/parallel/layout) stands on nothing else of the
# repo, so the analytic model reads it without linking the engine. The
# phase record's type (internal/metrics) is a leaf: mpi holds one per
# rank, so metrics may import no other package of the repo.
if go list -deps ./internal/ckpt | grep -x 'bagualu/internal/train'; then exit 1; fi
if go list -deps ./internal/serve/... | grep -xE 'bagualu/internal/(train|data)'; then exit 1; fi
if go list -deps ./internal/parallel/pipe | grep -xE 'bagualu/internal/(train|parallel)'; then exit 1; fi
if go list -deps ./internal/parallel/layout | grep '^bagualu/internal/' | grep -vx 'bagualu/internal/parallel/layout'; then exit 1; fi
if go list -deps ./internal/perfmodel | grep -x 'bagualu/internal/parallel'; then exit 1; fi
if go list -deps ./internal/metrics | grep '^bagualu/' | grep -vx 'bagualu/internal/metrics'; then exit 1; fi
if git grep -n '\.Supernode(' -- '*.go' ':!*_test.go' ':!internal/mpi/' ':!internal/simnet/'; then exit 1; fi
# What a backward unit is — its parameters and when it finishes — is
# nn's unit table (nn.GPT.Units): no program code outside internal/nn
# asks a layer whether it reports its experts.
if git grep -n 'nn\.ExpertReporter)' -- '*.go' ':!*_test.go' ':!internal/nn/'; then exit 1; fi
go test -race ./...
go test -count=2 -run 'Deterministic|BitExact|ArmedWireFaultsFire|TracksMeasuredSimsec|DedupCheckpoint|RestoreBytes|GatherShards|RecoveryReadsSlice|RailScheduleMatchesReference|RailTraffic|AllReduceSelector|ShardedSyncBytesHier|SupernodeGeometry|RequestLanes|RequestPortArithmetic|RequestFailureInFlight|RequestBodyRules|DeferYieldsToEarlierJoins|DeferFailureDropsPending|SyncPricesDenseAndExpertConcurrently|RollForwardMatchesRestart|RecoveryVote|RecoveryPathGenerated|DrainedCrashRestoresFromDisk|PipelineGeneratedEquivalence|StashedPassesMatchSequential|MixedOverflowSkipsEverywhere|MemoryCountsScheduledPasses|DepthOneEngineMatchesTrainer|RepartitionKeepsPrecisionState|PipelineCrashShrinkRestore|PooledStepMatchesUnpooled|GradWireRoundsOnce|MixedSyncBytesMatchModel|PhaseRecordPerRank|MitigateKeepsMovedState|GatherDissemination|StepLossRankOrder|StepScalarsUnderSync|CrashRecoveryMatchesRestart|BitsGolden|ExchangeRoundsCrossSupernodeOnce|A2AAlgosTrainIdentically|GradBucketsPartitionOwned|ExpertGroupsLeaveInsideBackward|UnitsFollowBackwardOrder|RunnerReportsFollowUnitsOrder' ./internal/...
# The allocation gates: each step benchmark fails when its step
# allocates more than its recorded baseline plus 5% (gatedLoop).
go test -run '^$' -bench 'BenchmarkTrainStep$|BenchmarkPipelineStep$|BenchmarkEngineStep$|BenchmarkInferStep' -benchtime 3x .
# The layer stash and the pipeline runner move caches between passes in
# flight — a split backward's B leaves tensors for its W
# (TestSplitBackwardKeepsItsGradient; its clock,
# TestSplitBackwardSendsBeforeWeights) — and trainers on concurrent
# goroutines must share no step state: twice more under the race
# detector.
go test -race -count=2 ./internal/nn ./internal/parallel/pipe
go test -race -count=2 -run TestConcurrentTrainersMatchSequential ./internal/train
# The amd64 assembly kernels promise the portable Go loops' bits: the
# kernel packages, the inference path built on them (transposed key
# cache, serve and fleet token checks) and the fast goldens again with
# the assembly compiled out, and the portable files type-checked for an
# architecture that has no assembly at all (vet's asmdecl checked the
# amd64 frames above).
go test -tags purego ./internal/tensor ./internal/half ./internal/nn ./internal/moe ./internal/serve/... ./cmd/bagualu
GOARCH=arm64 go vet ./internal/cpufeat ./internal/tensor ./internal/half ./internal/nn ./internal/moe
# The softmax and GELU kernels transcribe math.Exp and math.Tanh; their
# inputs are float32, so "same bits" is checked on all 2^32 of them
# (tier-1 visits every 509th). A few minutes.
go test -run TestVMathSweep ./internal/tensor -vmath.stride=1

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/bagualu" ./cmd/bagualu
# Through a file, so a failing exit status stops the script too.
for id in R2 R3 R4 R5 R8 R13 R14b R16 R17 R18 R19; do
	"$bin/bagualu" exp $id -csv > "$bin/$id.csv"
	cmp "$bin/$id.csv" cmd/bagualu/testdata/$id.csv
done
