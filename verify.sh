#!/bin/sh
# Repo verification gate: build, vet, the whole suite under the race
# detector (which also diffs the fast R-tables against their goldens,
# cmd/bagualu TestGoldens), every replay / bit-exact gate twice in one
# process (-count=2 catches state leaking from one run into the next),
# the step benchmarks' allocation gates, the kernel packages without
# their assembly, the transcendental
# kernels on every float32 there is, and the slower
# deterministic R-tables regenerated and compared with their goldens —
# a compare that also fails on run-to-run drift. Last, the reachability
# gate: the CLI, the examples and the benchmark are built with coverage,
# the golden runs and one run of every other product entry point record
# what they reach, and every function no run reached must be listed
# with its reason in unreached.txt — nor may the list name a function a
# run reaches or that is gone. A package under internal/ that no
# product binary links fails it too. The runs use two Ps, so the kernel
# worker pool is reached on any host; the portable fallbacks, which a
# CPU without AVX2/F16C or a purego build does reach, need only exist.
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
# process grid (internal/parallel/layout) and the pipeline op schedule
# (internal/parallel/schedule) stand on nothing else of the repo, so the
# analytic model reads the grid and walks the runner's op list without
# linking the engine, and the engine never links the analytic model
# (the harness that runs a deployment of it, autotune.ShortRun, sits
# above both). The
# collectives' step lists (internal/simnet/coll) stand on simnet alone:
# mpi executes them and the step walk prices them, so neither may be
# below them. The
# phase record's type (internal/metrics) is a leaf: mpi holds one per
# rank, so metrics may import no other package of the repo.
if go list -deps ./internal/ckpt | grep -x 'bagualu/internal/train'; then exit 1; fi
if go list -deps ./internal/serve/... | grep -xE 'bagualu/internal/(train|data)'; then exit 1; fi
if go list -deps ./internal/parallel/pipe | grep -xE 'bagualu/internal/(train|parallel)'; then exit 1; fi
if go list -deps ./internal/parallel/layout | grep '^bagualu/internal/' | grep -vx 'bagualu/internal/parallel/layout'; then exit 1; fi
if go list -deps ./internal/parallel/schedule | grep '^bagualu/' | grep -vx 'bagualu/internal/parallel/schedule'; then exit 1; fi
if go list -deps ./internal/perfmodel | grep -xE 'bagualu/internal/(nn|mpi|parallel)'; then exit 1; fi
if go list -deps ./internal/parallel | grep -x 'bagualu/internal/perfmodel'; then exit 1; fi
if go list -deps ./internal/simnet/coll | grep '^bagualu/' | grep -vxE 'bagualu/internal/simnet(/coll)?|bagualu/internal/sunway'; then exit 1; fi
if go list -deps ./internal/metrics | grep '^bagualu/' | grep -vx 'bagualu/internal/metrics'; then exit 1; fi
if git grep -n '\.Supernode(' -- '*.go' ':!*_test.go' ':!internal/mpi/' ':!internal/simnet/'; then exit 1; fi
# One list runner: Comm.exec (internal/mpi/collectives.go) walks every
# step list mpi runs, the collectives' and the MoE exchanges' alike, so
# no other program file of mpi matches on a step's op.
if git grep -nE '(case [^:]*|Op [!=]= )coll\.(Send|Recv|RecvAdd|Take|Hold|Stash|Fold|Round|Mark)\b' -- 'internal/mpi/*.go' ':!*_test.go' ':!internal/mpi/collectives.go'; then exit 1; fi
# What a backward unit is — its parameters and when it finishes — is
# nn's unit table (nn.GPT.Units): no program code outside internal/nn
# asks a layer whether it reports its experts.
if git grep -n 'nn\.ExpertReporter)' -- '*.go' ':!*_test.go' ':!internal/nn/'; then exit 1; fi
go test -race ./...
go test -count=2 -run 'Deterministic|BitExact|ArmedWireFaultsFire|TracksMeasuredSimsec|DedupCheckpoint|RestoreBytes|GatherShards|RecoveryReadsSlice|RailScheduleMatchesReference|RailTraffic|AllReduceSelector|ShardedSyncBytesHier|SupernodeGeometry|RequestLanes|RequestPortArithmetic|RequestFailureInFlight|RequestBodyRules|DeferYieldsToEarlierJoins|DeferFailureDropsPending|SyncPricesDenseAndExpertConcurrently|RollForwardMatchesRestart|RecoveryVote|RecoveryPathGenerated|DrainedCrashRestoresFromDisk|PipelineGeneratedEquivalence|StashedPassesMatchSequential|MixedOverflowSkipsEverywhere|MemoryCountsScheduledPasses|DepthOneEngineMatchesTrainer|RepartitionKeepsPrecisionState|PipelineCrashShrinkRestore|PooledStepMatchesUnpooled|GradWireRoundsOnce|MixedSyncBytesMatchModel|PhaseRecordPerRank|MitigateKeepsMovedState|GatherDissemination|StepLossRankOrder|StepScalarsUnderSync|CrashRecoveryMatchesRestart|BitsGolden|ExchangeRoundsCrossSupernodeOnce|HierExchangeMatchesDirectOnAnyShape|DistMoEWireStatsW2Shape|A2AAlgosTrainIdentically|GradBucketsPartitionOwned|ExpertGroupsLeaveInsideBackward|UnitsFollowBackwardOrder|RunnerReportsFollowUnitsOrder|RebalanceKeepsTrajectory|OverlapNeverSlowsAStep|DistMoEOverlapMatchesBlocking|A2AStrategiesTrackSimulator|ExtrapolateMatchesFullSweep|EnumerateSpaceListsDistinctDeployments|CollectivePriceEqualsExecuted' ./internal/...
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
# cache, serve and fleet token checks), the optimizers and the
# collectives (the 16-bit gradient wire among them) that run the Adam
# and FP16 decode loops, the fast goldens and the engine's bit golden
# again with the assembly compiled out, and the portable files
# type-checked for an architecture that has no assembly at all (vet's
# asmdecl checked the amd64 frames above).
go test -tags purego ./internal/tensor ./internal/half ./internal/nn ./internal/moe ./internal/train ./internal/mpi ./internal/serve/... ./cmd/bagualu
go test -tags purego -run BitsGolden ./internal/parallel
GOARCH=arm64 go vet ./internal/cpufeat ./internal/tensor ./internal/half ./internal/nn ./internal/moe
# The softmax and GELU kernels transcribe math.Exp and math.Tanh; their
# inputs are float32, so "same bits" is checked on all 2^32 of them
# (tier-1 visits every 509th). A few minutes.
go test -timeout 30m -run TestVMathSweep ./internal/tensor -vmath.stride=1

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
# The product binaries are built with coverage: every run from here on,
# the golden loop's included, records which functions it reached. At
# one P the kernels never fan out, so the runs get two whatever the
# host has.
mkdir "$bin/cov"
GOCOVERDIR=$bin/cov
GOMAXPROCS=2
export GOCOVERDIR GOMAXPROCS
go build -cover -coverpkg=./... -o "$bin/bagualu" ./cmd/bagualu
go build -cover -coverpkg=./... -o "$bin/bench" ./benchmark
for ex in examples/*/; do
	go build -cover -coverpkg=./... -o "$bin/example-$(basename "$ex")" "./$ex"
done
# Through a file, so a failing exit status stops the script too.
for id in R2 R3 R4 R5 R8 R13 R14b R16 R17 R18 R19; do
	"$bin/bagualu" exp $id -csv > "$bin/$id.csv"
	cmp "$bin/$id.csv" cmd/bagualu/testdata/$id.csv
done
# Reachability: the product ships only what its entry points run. The
# rest of the registry (the loop's ids are not run twice), plan, train
# with each of its optional paths, a checkpoint served by R13, every
# example, and one short traced run of each benchmark workload.
"$bin/bagualu" exp list > "$bin/ids"
for id in $(awk 'NR > 2 { print $1 }' "$bin/ids"); do
	if [ ! -e "$bin/$id.csv" ]; then "$bin/bagualu" exp $id > /dev/null; fi
done
"$bin/bagualu" plan -seed 7 > /dev/null
"$bin/bagualu" plan -pp-max 4 -layers 8 > /dev/null
"$bin/bagualu" train > /dev/null
"$bin/bagualu" train -rebalance 2 > /dev/null
"$bin/bagualu" train -offload -zero > /dev/null
"$bin/bagualu" train -steps 2 -checkpoint "$bin/ckpt" > /dev/null
"$bin/bagualu" exp R13 -ckpt "$bin/ckpt" -ranks 8 -vocab 256 -dim 64 -ffn-hidden 256 -experts 8 -seq 32 > /dev/null
for ex in examples/*/; do
	"$bin/example-$(basename "$ex")" > /dev/null
done
# The benchmark reads BENCHMARK.json from, and writes its traces under,
# its working directory: it runs in $bin, beside a copy.
cp BENCHMARK.json "$bin/"
for w in $(sed -n '/"workloads"/,/"end_to_end"/s/^ *"name": "\(.*\)",$/\1/p' BENCHMARK.json); do
	(cd "$bin" && ./bench -workload "$w" -seconds 1 -trace 1 > /dev/null)
done
# Every function outside benchmark/ that none of those runs reached
# must be in unreached.txt with a reason, and every entry there must
# still be unreached: the diff fails either way. Whether a portable
# fallback runs depends on the CPU and the build tags, so those entries
# are taken out of both sides; each must still name a function.
go tool covdata func -i "$bin/cov" |
	sed -n 's|^bagualu/\([^:]*\):[0-9]*:[[:space:]]*\([^[:space:]]*\)[[:space:]]*\([0-9.]*\)%$|\1 \2 \3|p' |
	grep -v '^benchmark/' | sort > "$bin/funcs"
if grep -v '^#' unreached.txt | grep . | grep -v '^[^ ]* [^ ]* -- ..*$'; then exit 1; fi
sed -n 's/^\([^#][^ ]* [^ ]*\) -- portable fallback.*$/\1/p' unreached.txt | sort > "$bin/fallbacks"
if cut -d' ' -f1,2 "$bin/funcs" | sort | comm -13 - "$bin/fallbacks" | grep .; then exit 1; fi
sed -n 's/^\([^ ]* [^ ]*\) 0\.0$/\1/p' "$bin/funcs" | sort | comm -23 - "$bin/fallbacks" > "$bin/unreached"
sed -n 's/^\([^#][^ ]* [^ ]*\) -- .*$/\1/p' unreached.txt | sort | comm -23 - "$bin/fallbacks" | diff - "$bin/unreached"
# A package no product binary links is reached by nothing at all.
# Asked of the amd64 build with its assembly, the one that links
# internal/cpufeat, whatever the host and the build tags.
GOARCH=amd64 GOFLAGS= go list -deps ./cmd/... ./examples/... ./benchmark | sort -u > "$bin/linked"
if GOARCH=amd64 GOFLAGS= go list ./internal/... | sort | comm -23 - "$bin/linked" | grep .; then exit 1; fi
