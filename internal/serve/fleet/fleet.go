// Package fleet is the fault-tolerant serving layer: a front-end
// router over N model replicas, each an independent serve.Engine on
// its own simulated world, sharing one virtual timeline. The training
// path's availability stack (PR 3 fault injector, PR 4 EWMA health
// monitor, reliable transport) is wired into the serving clock domain:
//
//   - replica crashes fire at step boundaries from the injector's
//     seeded schedule (and, unplanned, from wire-fault exhaustion on
//     the inference exchange when a replica's retry budget burns out);
//   - straggling replicas run with the mpi delay multiplier on every
//     rank, and the router's health monitor classifies them Degraded
//     from normalized step durations, steering admission away;
//   - in-flight requests on a dead replica are re-dispatched with
//     exponential backoff, and (under the hedging policy) a request
//     aging past HedgeP99 x the online p99 gets a second copy on a
//     different replica — first completion wins, the loser is
//     cancelled and its KV reclaimed;
//   - a crashed replica restores its weights from the inference
//     checkpoint (priced at RestoreBWGiBs on the virtual clock), runs
//     a warm-up probe whose tokens are checked bit-exactly against the
//     reference model, and only then rejoins rotation;
//   - per-tier SLO deadlines tighten in proportion to surviving
//     capacity, so under sustained loss the fleet sheds load instead
//     of collapsing.
//
// Determinism is load-bearing: every routing decision happens at a
// virtual-clock event processed in (time, kind, replica, id) order,
// every set iteration is sorted, and sampling RNGs derive from request
// ids — so the same seed yields a byte-identical Result, and every
// served token equals the fault-free single-replica decode of the same
// request id regardless of which replica, retry, or hedge produced it.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"

	"bagualu/internal/ckpt"
	"bagualu/internal/fault"
	"bagualu/internal/health"
	"bagualu/internal/metrics"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/serve"
	"bagualu/internal/simnet"
)

// Policy selects how much of the robustness stack is active — the
// R18 comparison axis.
type Policy int

const (
	// NoFailover is the strawman: crashed replicas stay dead and their
	// in-flight requests are dropped.
	NoFailover Policy = iota
	// Failover restores crashed replicas from the checkpoint and
	// re-dispatches their in-flight requests with backoff.
	Failover
	// FailoverHedge adds p99-triggered request hedging on top of
	// Failover.
	FailoverHedge
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case NoFailover:
		return "no-failover"
	case Failover:
		return "failover"
	case FailoverHedge:
		return "failover+hedge"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config assembles one fleet run.
type Config struct {
	// Replicas is the number of model replicas behind the router.
	Replicas int
	// Ranks is the expert-parallel width of each replica's world.
	Ranks int
	// Topo prices each replica's internal traffic (nil = free network).
	Topo *simnet.Topology
	// NewModel builds one rank's model over the replica communicator.
	// Every invocation must produce identical weights (same init seed),
	// or bit-exactness across replicas is forfeit.
	NewModel func(c *mpi.Comm) *nn.GPT
	// Engine is the per-replica serving configuration. QueueCap and
	// SLOQueueWait are overridden to 0: the router owns backpressure
	// and shedding at the fleet level.
	Engine serve.Config
	// Requests is the fleet-level stream, sorted by arrival.
	Requests []serve.Request

	// Policy picks the robustness stack (see the Policy constants).
	Policy Policy
	// Faults is the replica-granularity fault schedule: Ranks is
	// overridden to Replicas, so MTBFSteps/Stragglers/StragglerMult
	// describe whole replicas; CorruptProb/DropProb are applied to the
	// wire inside each replica's world (absorbed by reliable transport
	// until a frame's retry budget exhausts — an unplanned crash).
	Faults fault.Config
	// CkptDir is the weights-only checkpoint replicas restore from
	// (required for Failover policies; see ckpt.SaveForInference).
	CkptDir string
	// RestoreBWGiBs prices the re-read of the weights on the virtual
	// clock (default 1 GiB/s).
	RestoreBWGiBs float64

	// TierSLO[t] is tier t's admission deadline in seconds; a queued
	// request older than TierSLO[t] x (live/total replicas) is shed.
	// Empty disables shedding.
	TierSLO []float64
	// HedgeP99 triggers a hedge once a dispatched request's age
	// exceeds HedgeP99 x the online p99 end-to-end latency (0 = 1.5).
	HedgeP99 float64
	// HedgeMinSamples is the completions needed before the p99
	// estimate is trusted (default 8).
	HedgeMinSamples int
	// WindowPerRank caps dispatched-but-unfinished requests per
	// replica at WindowPerRank x Ranks; excess waits at the router
	// where shedding applies (0 = unlimited).
	WindowPerRank int
}

const (
	// retryBackoff is the base re-dispatch delay after a crash in
	// seconds, doubling per attempt.
	retryBackoff = 1e-3
	// probeTokens is the warm-up probe's decode length.
	probeTokens = 4
)

// Result is the fleet-level outcome. Counters partition the request
// stream exactly: Requests == Completed + Shed + Dropped + Rejected.
type Result struct {
	Policy    Policy
	Requests  int
	Completed int
	Shed      int // router SLO shedding — the only sanctioned loss
	Dropped   int // in-flight lost to a crash under NoFailover, or fleet collapse
	Rejected  int // infeasible for the configured engine (never dispatched)

	Retries   int // crash re-dispatches
	Hedges    int // hedge copies launched
	HedgeWins int // completions won by the hedge copy
	Crashes   int // replica crash events (planned + wire exhaustion)
	Restores  int // replicas restored, probed, and rejoined
	MinLive   int // smallest concurrently-live replica count observed

	ProbeMismatches int // warm-up probes whose tokens diverged (must be 0)

	OutputTokens int
	Makespan     float64
	RestoreSecs  float64 // virtual seconds spent re-reading weights
	WarmupSecs   float64 // virtual seconds between rejoin and probe pass

	TTFT *metrics.Histogram // original arrival -> first token
	TPOT *metrics.Histogram // mean inter-token gap
	E2E  *metrics.Histogram // original arrival -> completion

	// Tokens maps request id -> served output tokens (winner copy).
	Tokens map[int][]int
}

// Goodput returns completed requests per simulated second.
func (r Result) Goodput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Makespan
}

// TokensPerSec returns served output tokens per simulated second.
func (r Result) TokensPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.OutputTokens) / r.Makespan
}

// Digest hashes every served request's tokens (ids ascending) with
// FNV-1a — the replay key: two runs served the same bytes iff their
// digests match.
func (r Result) Digest() uint64 {
	ids := make([]int, 0, len(r.Tokens))
	for id := range r.Tokens {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, id := range ids {
		put(id)
		put(len(r.Tokens[id]))
		for _, t := range r.Tokens[id] {
			put(t)
		}
	}
	return h.Sum64()
}

// Fingerprint renders every observable of the result into one
// deterministic string — the replay-test comparison key. Map order
// never leaks: tokens enter via the sorted Digest.
func (r Result) Fingerprint() string {
	return fmt.Sprintf(
		"policy=%s req=%d done=%d shed=%d drop=%d rej=%d retry=%d hedge=%d hwin=%d crash=%d restore=%d minlive=%d mismatch=%d tok=%d makespan=%.9f restore_s=%.9f warmup_s=%.9f ttft=%.9f/%.9f tpot=%.9f/%.9f e2e=%.9f/%.9f digest=%016x",
		r.Policy, r.Requests, r.Completed, r.Shed, r.Dropped, r.Rejected,
		r.Retries, r.Hedges, r.HedgeWins, r.Crashes, r.Restores, r.MinLive,
		r.ProbeMismatches, r.OutputTokens, r.Makespan, r.RestoreSecs, r.WarmupSecs,
		r.TTFT.Quantile(0.5), r.TTFT.Quantile(0.99),
		r.TPOT.Quantile(0.5), r.TPOT.Quantile(0.99),
		r.E2E.Quantile(0.5), r.E2E.Quantile(0.99),
		r.Digest())
}

// event kinds, in tie-break priority order at equal times: completed
// work is visible before new arrivals, retries and rejoins land before
// the step that could use them, and replica steps go last.
const (
	evComplete = iota
	evRetry
	evRejoin
)

// event is one scheduled fleet occurrence on the shared timeline.
type event struct {
	t       float64
	kind    int
	replica int
	id      int
	comps   []serve.Completion
	req     serve.Request
}

func (f *fleet) pushEvent(e event) {
	i := sort.Search(len(f.events), func(i int) bool { return eventLess(e, f.events[i]) })
	f.events = append(f.events, event{})
	copy(f.events[i+1:], f.events[i:])
	f.events[i] = e
}

func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.replica != b.replica {
		return a.replica < b.replica
	}
	return a.id < b.id
}

// fleet is the run state of one Run invocation.
type fleet struct {
	cfg  Config
	ecfg serve.Config
	inj  *fault.Injector
	mon  *health.Monitor
	reps []*replica

	nextArr   int
	routerQ   []serve.Request
	flights   map[int]*flight
	events    []event
	e2e       []float64 // sorted completion latencies (p99 estimate)
	perTok    []float64 // last normalized step duration per replica
	window    int       // max dispatched requests per replica (0 = unlimited)
	maxT      float64
	accounted int

	probePrompt []int
	probeExpect [][]int // per replica id
	paramBytes  int64
	seqLen      int

	res Result
}

func (c Config) withDefaults() Config {
	if c.RestoreBWGiBs <= 0 {
		c.RestoreBWGiBs = 1
	}
	if c.HedgeP99 <= 0 {
		c.HedgeP99 = 1.5
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 8
	}
	// The router owns backpressure and shedding; a replica engine that
	// second-guessed it would break the accounting partition.
	c.Engine.QueueCap = 0
	c.Engine.SLOQueueWait = 0
	return c
}

// Run serves cfg.Requests through the fleet and returns the outcome.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas <= 0 || cfg.Ranks <= 0 {
		return Result{}, fmt.Errorf("fleet: replicas %d / ranks %d", cfg.Replicas, cfg.Ranks)
	}
	if cfg.NewModel == nil {
		return Result{}, fmt.Errorf("fleet: NewModel is required")
	}
	if cfg.Policy != NoFailover && cfg.CkptDir == "" {
		return Result{}, fmt.Errorf("fleet: %s policy requires CkptDir", cfg.Policy)
	}
	fcfg := cfg.Faults
	fcfg.Ranks = cfg.Replicas
	if fcfg.Steps <= 0 {
		fcfg.Steps = 1 << 20
	}
	inj, err := fault.New(fcfg)
	if err != nil {
		return Result{}, err
	}

	f := &fleet{
		cfg:     cfg,
		ecfg:    cfg.Engine,
		inj:     inj,
		mon:     health.NewMonitor(cfg.Replicas, health.Config{}),
		flights: make(map[int]*flight),
		perTok:  make([]float64, cfg.Replicas),
		window:  cfg.WindowPerRank * cfg.Ranks,
		res: Result{
			Policy:   cfg.Policy,
			Requests: len(cfg.Requests),
			MinLive:  cfg.Replicas,
			TTFT:     metrics.NewLatencyHistogram(),
			TPOT:     metrics.NewLatencyHistogram(),
			E2E:      metrics.NewLatencyHistogram(),
			Tokens:   make(map[int][]int),
		},
	}
	if err := f.prepareReference(); err != nil {
		return Result{}, err
	}
	for r := 0; r < cfg.Replicas; r++ {
		rep := newReplica(r, f)
		f.reps = append(f.reps, rep)
		f.spawn(rep, 0)
	}
	f.run()
	for _, rep := range f.reps {
		if rep.live {
			rep.stopRanks()
		}
		<-rep.done
	}
	f.res.Makespan = f.maxT
	if n := len(cfg.Requests); n > 0 {
		if last := cfg.Requests[n-1].Arrival; last > f.res.Makespan {
			f.res.Makespan = last
		}
	}
	return f.res, nil
}

// prepareReference precomputes what the router needs from the model
// before any replica exists: the restore transfer size (a single-rank
// model holds the full parameter set — exactly the checkpoint's
// content), the context bound, and every replica's expected warm-up
// probe tokens. Probes are decoded on a world of the replicas' own
// width so the expectation shares their exact compute layout.
func (f *fleet) prepareReference() error {
	var prepErr error
	one := mpi.NewWorld(1, nil)
	one.Run(func(c *mpi.Comm) {
		m := f.cfg.NewModel(c)
		if f.cfg.CkptDir != "" {
			if _, _, err := ckpt.LoadForInference(f.cfg.CkptDir, m.Params()); err != nil {
				prepErr = err
				return
			}
		}
		for _, p := range m.Params() {
			f.paramBytes += 4 * int64(p.W.Len())
		}
		f.seqLen = m.Cfg.SeqLen
		// Probe prompt: fixed tokens derived from the sample seed, short
		// enough for any context.
		n := 4
		if n > m.Cfg.SeqLen-probeTokens {
			n = m.Cfg.SeqLen - probeTokens
		}
		rng := serve.SampleRNG(f.cfg.Engine.SampleSeed, -1)
		f.probePrompt = make([]int, n)
		for i := range f.probePrompt {
			f.probePrompt[i] = rng.Intn(m.Cfg.Vocab)
		}
		if f.cfg.Ranks == 1 {
			f.probeExpect = probeDecodes(f, m)
		}
	})
	if prepErr != nil || f.cfg.Ranks == 1 {
		return prepErr
	}
	w := mpi.NewWorld(f.cfg.Ranks, f.cfg.Topo)
	w.Run(func(c *mpi.Comm) {
		m := f.cfg.NewModel(c)
		if f.cfg.CkptDir != "" {
			if _, _, err := ckpt.LoadForInference(f.cfg.CkptDir, m.Params()); err != nil {
				if c.Rank() == 0 {
					prepErr = err
				}
				return
			}
		}
		// Collective: every rank decodes the probes together (each as
		// its own sequence); rank 0 keeps the expectation.
		exp := probeDecodes(f, m)
		if c.Rank() == 0 {
			f.probeExpect = exp
		}
	})
	return prepErr
}

// probeDecodes runs every replica's probe through the reference model.
func probeDecodes(f *fleet, m *nn.GPT) [][]int {
	var out [][]int
	for r := 0; r < f.cfg.Replicas; r++ {
		id := probeID(r)
		toks := m.GenerateKV(f.probePrompt, probeTokens,
			f.cfg.Engine.Temperature, serve.SampleRNG(f.cfg.Engine.SampleSeed, id))
		out = append(out, toks[len(f.probePrompt):])
	}
	return out
}

// probeID is the reserved (negative) request id of replica r's
// warm-up probe.
func probeID(r int) int { return -(r + 1) }

// run is the discrete-event loop: repeatedly pick the globally
// earliest pending occurrence — a scheduled event, the next arrival,
// or the earliest ready replica step — and process it.
func (f *fleet) run() {
	for f.accounted < len(f.cfg.Requests) {
		kind, rep := f.nextOccurrence()
		switch kind {
		case occEvent:
			ev := f.events[0]
			f.events = f.events[1:]
			f.advanceTime(ev.t)
			switch ev.kind {
			case evComplete:
				f.processCompletions(ev)
			case evRetry:
				f.routerQ = append(f.routerQ, ev.req)
				f.drainRouter(ev.t)
			case evRejoin:
				f.rejoin(f.reps[ev.replica], ev.t)
			}
		case occArrival:
			r := f.cfg.Requests[f.nextArr]
			f.nextArr++
			f.advanceTime(r.Arrival)
			f.arrive(r)
		case occStep:
			f.stepReplica(rep)
		case occNone:
			// Nothing can make progress: the fleet has collapsed (or
			// work is stranded with no live capacity and no restore
			// pending). Everything outstanding is dropped.
			f.collapse()
			return
		}
	}
}

const (
	occEvent = iota
	occArrival
	occStep
	occNone
)

// nextOccurrence picks the earliest pending occurrence; ties break
// event < arrival < step, then lowest replica id.
func (f *fleet) nextOccurrence() (int, *replica) {
	best, kind := 0.0, occNone
	var rep *replica
	if len(f.events) > 0 {
		best, kind = f.events[0].t, occEvent
	}
	if f.nextArr < len(f.cfg.Requests) {
		if t := f.cfg.Requests[f.nextArr].Arrival; kind == occNone || t < best {
			best, kind = t, occArrival
		}
	}
	for _, r := range f.reps {
		if !r.live || (r.inflight == 0 && len(r.pendingCancel) == 0) {
			continue
		}
		if kind == occNone || r.clock < best {
			best, kind, rep = r.clock, occStep, r
		}
	}
	return kind, rep
}

func (f *fleet) advanceTime(t float64) {
	if t > f.maxT {
		f.maxT = t
	}
}

// collapse drops everything still outstanding — reached only when no
// live replica remains and no restore is scheduled.
func (f *fleet) collapse() {
	for ; f.nextArr < len(f.cfg.Requests); f.nextArr++ {
		f.res.Dropped++
		f.accounted++
	}
	for _, r := range f.routerQ {
		if r.ID >= 0 {
			f.res.Dropped++
			f.accounted++
		}
	}
	f.routerQ = nil
	for _, id := range sortedFlightIDs(f.flights) {
		fl := f.flights[id]
		if !fl.done && id >= 0 {
			f.res.Dropped++
			f.accounted++
			fl.done = true
		}
	}
}

// liveReplicas counts replicas currently alive (in rotation or
// warming up).
func (f *fleet) liveReplicas() int {
	n := 0
	for _, r := range f.reps {
		if r.live {
			n++
		}
	}
	return n
}

// observeHealth feeds the monitor one round of normalized step
// durations: each live replica's last per-token step cost relative to
// the fleet-wide minimum, so a straggler's delay multiplier surfaces
// as a score near that multiplier.
func (f *fleet) observeHealth() {
	min := 0.0
	for r, v := range f.perTok {
		if !f.reps[r].live || v <= 0 {
			continue
		}
		if min == 0 || v < min {
			min = v
		}
	}
	if min <= 0 {
		return
	}
	scores := make([]float64, f.cfg.Replicas)
	for r, v := range f.perTok {
		if f.reps[r].live && v > 0 {
			scores[r] = v / min
		}
	}
	f.mon.Observe(scores)
}
