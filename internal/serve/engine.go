package serve

import (
	"bagualu/internal/metrics"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// Engine is the stepwise serving core: the per-rank state of the
// continuous-batching loop (admission queue, resident sequences, KV
// accounting, result counters) behind an explicit step API. serve.Run
// drives it with a self-contained arrival loop for the single-engine
// benchmarks; the fleet router (serve/fleet) drives N of them — one
// per replica — from a fleet-level event loop, injecting admissions,
// cancelling hedged losers, and collecting per-request token outputs
// for the bit-exactness audit.
//
// Step is collective: every rank of the engine's communicator must
// call it together (a rank with no resident sequences still steps so
// the distributed-MoE expert dispatch underneath stays collective).
type Engine struct {
	model  *nn.GPT
	c      *mpi.Comm
	cfg    Config
	cm     costModel
	maxCtx int

	queue    []Request
	active   []*seqState
	kvInUse  int
	lastRows int
	res      Result
}

// Completion reports one request retired by a Step: the full emitted
// token sequence and the virtual times of its first and last output
// token. The fleet router uses the times for fleet-level latency
// accounting (measured against the request's original arrival, which
// survives retries and hedges) and the tokens for the bit-exactness
// audit against the fault-free reference.
type Completion struct {
	Req      Request
	Tokens   []int
	FirstTok float64
	LastTok  float64
}

// SampleRNG derives the per-request sampling RNG the engine uses for
// a request id under a given sample seed. Exposed so reference decodes
// (nn.GPT.GenerateKV with the same RNG) reproduce a served request's
// token sequence bit-exactly, whatever replica, retry, or hedge
// produced it.
func SampleRNG(seed uint64, id int) *tensor.RNG {
	return tensor.NewRNG(seed ^ (uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d))
}

// NewEngine builds an engine over the model and communicator. Serial
// batching forces MaxBatch to 1, as in Run.
func NewEngine(model *nn.GPT, c *mpi.Comm, cfg Config) *Engine {
	if cfg.Batching == Serial {
		cfg.MaxBatch = 1
	}
	return &Engine{
		model:  model,
		c:      c,
		cfg:    cfg,
		cm:     newCostModel(model),
		maxCtx: model.Cfg.SeqLen,
		res: Result{
			TTFT: metrics.NewLatencyHistogram(),
			TPOT: metrics.NewLatencyHistogram(),
			E2E:  metrics.NewLatencyHistogram(),
		},
	}
}

// Offer presents an arrival to the admission queue. Requests that can
// never be served (context or KV-budget overflow) and arrivals past a
// bounded queue are rejected (counted in the engine result) and false
// is returned. The fleet router pre-checks feasibility and capacity,
// so an Offer it issues must never return false.
func (e *Engine) Offer(r Request) bool {
	switch {
	case r.Tokens() > e.maxCtx,
		e.cfg.KVBudget > 0 && r.Tokens() > e.cfg.KVBudget:
		e.res.Rejected++ // can never be served
		return false
	case e.cfg.QueueCap > 0 && len(e.queue) >= e.cfg.QueueCap:
		e.res.Rejected++ // backpressure
		return false
	default:
		e.queue = append(e.queue, r)
		return true
	}
}

// ShedExpired drops queued requests that have waited longer than the
// SLO admission deadline at virtual time now, counting them rejected.
// No-op when the deadline is unset.
func (e *Engine) ShedExpired(now float64) {
	if e.cfg.SLOQueueWait <= 0 {
		return
	}
	keep := e.queue[:0]
	for _, r := range e.queue {
		if now-r.Arrival > e.cfg.SLOQueueWait {
			e.res.Rejected++
		} else {
			keep = append(keep, r)
		}
	}
	e.queue = keep
}

// Pending counts requests the engine still owes work: queued plus
// resident.
func (e *Engine) Pending() int { return len(e.queue) + len(e.active) }

// ActiveCount counts resident sequences.
func (e *Engine) ActiveCount() int { return len(e.active) }

// Admit moves queued requests into the resident batch, bounded by
// MaxBatch and the KV budget, reserving each request's full KV
// footprint. The caller applies the batching policy (Serial/Static
// admit only an empty engine; Continuous admits every step).
func (e *Engine) Admit() {
	for len(e.queue) > 0 {
		if e.cfg.MaxBatch > 0 && len(e.active) >= e.cfg.MaxBatch {
			break
		}
		r := e.queue[0]
		if e.cfg.KVBudget > 0 && e.kvInUse+r.Tokens() > e.cfg.KVBudget {
			break
		}
		e.queue = e.queue[1:]
		e.kvInUse += r.Tokens()
		s := &seqState{req: r, cache: e.model.NewKVCache()}
		if e.cfg.Temperature > 0 {
			s.rng = SampleRNG(e.cfg.SampleSeed, r.ID)
		}
		e.active = append(e.active, s)
	}
	if e.kvInUse > e.res.PeakKV {
		e.res.PeakKV = e.kvInUse
	}
}

// Cancel removes a request by id from the queue or the resident batch,
// releasing its KV reservation — the fleet router's hedge-loser and
// shed path. Reports whether the request was found. Cancelled requests
// are not counted completed or rejected in the engine result; the
// caller owns their accounting.
func (e *Engine) Cancel(id int) bool {
	for i, r := range e.queue {
		if r.ID == id {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return true
		}
	}
	for i, s := range e.active {
		if s.req.ID == id {
			e.kvInUse -= s.req.Tokens()
			e.active = append(e.active[:i], e.active[i+1:]...)
			return true
		}
	}
	return false
}

// Step runs one mixed prefill/decode step over the resident batch —
// collective across the engine's communicator — prices it on the
// virtual clock, samples one token per sequence, and retires finished
// requests, returning their completions in batch order. Legal with an
// empty batch (zero-row collective step).
func (e *Engine) Step() []Completion {
	// One mixed prefill/decode step. attnTokens prices causal
	// attention: each row attends over its whole prefix.
	var tokens []int
	runs := make([]nn.InferRun, 0, len(e.active))
	attnTokens := 0
	for _, s := range e.active {
		var rows int
		if !s.prefilled {
			rows = len(s.req.Prompt)
			tokens = append(tokens, s.req.Prompt...)
		} else {
			rows = 1
			tokens = append(tokens, s.next)
		}
		for i := 0; i < rows; i++ {
			attnTokens += s.cache.Len + i + 1
		}
		runs = append(runs, nn.InferRun{Cache: s.cache, Rows: rows})
	}
	logits := e.model.InferStep(tokens, runs)
	e.lastRows = len(tokens)
	e.res.Steps++
	e.cm.charge(e.c, e.cfg, e.model, len(tokens), attnTokens)
	tNow := e.c.Now()

	// Sample one token per sequence from its last row; retire
	// completed requests.
	var done []Completion
	row := 0
	keep := e.active[:0]
	for ri, s := range e.active {
		row += runs[ri].Rows
		tok := nn.SampleToken(logits.Row(row-1), e.cfg.Temperature, s.rng)
		if !s.prefilled {
			s.prefilled = true
			e.res.PrefillTokens += len(s.req.Prompt)
			e.res.TTFT.Add(tNow - s.req.Arrival)
			s.firstTok = tNow
		}
		s.next = tok
		s.tokens = append(s.tokens, tok)
		s.emitted++
		s.lastTok = tNow
		e.res.OutputTokens++
		if s.emitted >= s.req.MaxNew {
			e.res.Completed++
			e.kvInUse -= s.req.Tokens()
			e.res.E2E.Add(tNow - s.req.Arrival)
			if s.emitted > 1 {
				e.res.TPOT.Add((s.lastTok - s.firstTok) / float64(s.emitted-1))
			}
			done = append(done, Completion{
				Req: s.req, Tokens: s.tokens,
				FirstTok: s.firstTok, LastTok: s.lastTok,
			})
		} else {
			keep = append(keep, s)
		}
	}
	e.active = keep
	return done
}

// LastRows reports the token rows the most recent Step processed —
// the work normalizer the fleet's health scoring divides step duration
// by, so a big batch is not mistaken for a slow replica.
func (e *Engine) LastRows() int { return e.lastRows }

// Result snapshots the engine's accumulated counters with Makespan
// set to the rank's current virtual time.
func (e *Engine) Result() Result {
	res := e.res
	res.Makespan = e.c.Now()
	return res
}
