package fleet

import (
	"sort"

	"bagualu/internal/ckpt"
	"bagualu/internal/fault"
	"bagualu/internal/mpi"
	"bagualu/internal/serve"
)

// command is one instruction from the router to a replica rank. The
// per-rank channels are buffered (capacity 1) and the ranks block on
// them between steps, so the router never deadlocks sending.
type command struct {
	stop      bool // drain: return from the rank loop
	crash     bool // planned fail-stop: vanish at the step boundary
	advanceTo float64
	admit     []serve.Request
	cancel    []int
}

// rankReport is one rank's account of a commanded step.
type rankReport struct {
	rank    int
	now     float64
	stepDur float64
	rows    int
	comps   []serve.Completion
	failed  bool // wire-fault exhaustion or peer failure aborted the step
}

// replica is the router's handle on one model replica: its world, the
// command/report plumbing, and the dispatch bookkeeping.
type replica struct {
	id   int
	f    *fleet
	live bool
	// inRotation gates admission: false while down or warming up.
	inRotation bool

	cmds    []chan command
	reports chan rankReport
	done    chan struct{}

	clock    float64 // next step's start time (max rank clock)
	steps    int     // cumulative commanded steps across incarnations
	inflight int     // dispatched-but-unfinished requests (incl. probe)
	rr       int     // round-robin rank assignment counter
	rejoinAt float64 // when the current incarnation came back

	assigned      map[int]bool // request ids resident on this replica
	pendingAdmit  [][]serve.Request
	pendingCancel []int
}

func newReplica(id int, f *fleet) *replica {
	return &replica{id: id, f: f, assigned: make(map[int]bool)}
}

// spawn starts a fresh incarnation of the replica's world at virtual
// time startAt: new goroutines, model rebuilt (weights restored from
// the checkpoint when configured), stragglers re-armed, reliable
// transport enabled when wire faults are in play.
func (f *fleet) spawn(rep *replica, startAt float64) {
	cfg := f.cfg
	w := mpi.NewWorld(cfg.Ranks, cfg.Topo)
	if mult := f.inj.StragglerOf(rep.id); mult > 1 {
		// A straggling replica is a slow node slot: every rank of every
		// incarnation occupying it runs stretched.
		for g := 0; g < cfg.Ranks; g++ {
			w.SetRankDelay(g, mult)
		}
	}
	if cfg.Faults.DropProb > 0 || cfg.Faults.CorruptProb > 0 {
		wi, err := fault.New(fault.Config{
			// Decorrelate replicas' wire schedules while keeping each a
			// pure function of the run seed.
			Seed:        cfg.Faults.Seed ^ (uint64(rep.id+1) * 0x9e3779b97f4a7c15),
			Ranks:       cfg.Ranks,
			Steps:       1,
			CorruptProb: cfg.Faults.CorruptProb,
			DropProb:    cfg.Faults.DropProb,
		})
		if err == nil {
			wi.Arm(w)
			w.EnableReliableTransport(mpi.TransportConfig{})
		}
	}
	rep.live = true
	rep.inRotation = true
	rep.clock = startAt
	rep.inflight = 0
	rep.assigned = make(map[int]bool)
	rep.pendingAdmit = make([][]serve.Request, cfg.Ranks)
	rep.pendingCancel = nil
	rep.cmds = make([]chan command, cfg.Ranks)
	for i := range rep.cmds {
		rep.cmds[i] = make(chan command, 1)
	}
	rep.reports = make(chan rankReport, cfg.Ranks)
	rep.done = make(chan struct{})

	cmds, reports, done := rep.cmds, rep.reports, rep.done
	go func() {
		defer close(done)
		w.Run(func(c *mpi.Comm) {
			rankMain(c, f, cmds[c.Rank()], reports)
		})
	}()
}

// rankMain is one replica rank's life: build the model (restoring
// weights when configured), then execute router commands until told to
// stop, crash, or killed by a wire fault the reliable transport could
// not absorb.
func rankMain(c *mpi.Comm, f *fleet, cmds <-chan command, reports chan<- rankReport) {
	model := f.cfg.NewModel(c)
	if f.cfg.CkptDir != "" {
		if _, _, err := ckpt.LoadForInference(f.cfg.CkptDir, model.Params()); err != nil {
			panic(err) // configuration error: no checkpoint to serve from
		}
	}
	eng := serve.NewEngine(model, c, f.ecfg)
	for cmd := range cmds {
		if cmd.stop || cmd.crash {
			return
		}
		c.AdvanceTo(cmd.advanceTo)
		for _, id := range cmd.cancel {
			eng.Cancel(id)
		}
		for _, r := range cmd.admit {
			eng.Offer(r)
		}
		eng.Admit()
		t0 := c.Now()
		var comps []serve.Completion
		err := mpi.Protect(func() { comps = eng.Step() })
		if err != nil {
			// The inference exchange died under this rank (retry budget
			// exhausted, or a peer already abandoned). Declare ourselves
			// failed so peers blocked in the collective wake, report, and
			// vanish — the router treats the whole replica as crashed.
			c.Abandon()
			reports <- rankReport{rank: c.Rank(), now: c.Now(), failed: true}
			return
		}
		reports <- rankReport{
			rank: c.Rank(), now: c.Now(), stepDur: c.Now() - t0,
			rows: eng.LastRows(), comps: comps,
		}
	}
}

// stopRanks drains a live replica at shutdown.
func (rep *replica) stopRanks() {
	for _, ch := range rep.cmds {
		ch <- command{stop: true}
	}
	rep.live = false
	rep.inRotation = false
}

// stepReplica runs one collective step on a replica: deliver pending
// cancels and admissions, execute, and fold the reports back into the
// router's timeline. A scheduled crash at this step boundary, or a
// wire-fault abort inside the step, turns into crash handling instead.
func (f *fleet) stepReplica(rep *replica) {
	if f.inj.CrashesAt(rep.id, rep.steps) {
		// The step counter still advances past the crash boundary, or a
		// restored incarnation would re-trigger the same scheduled crash
		// forever.
		rep.steps++
		for _, ch := range rep.cmds {
			ch <- command{crash: true}
		}
		f.crash(rep, rep.clock)
		return
	}
	for i, ch := range rep.cmds {
		ch <- command{
			advanceTo: rep.clock,
			admit:     rep.pendingAdmit[i],
			cancel:    rep.pendingCancel,
		}
	}
	rep.pendingAdmit = make([][]serve.Request, f.cfg.Ranks)
	rep.pendingCancel = nil
	rep.steps++

	var comps []serve.Completion
	maxNow, maxDur := rep.clock, 0.0
	rows, anyFailed := 0, false
	okRanks := make([]bool, f.cfg.Ranks)
	for i := 0; i < f.cfg.Ranks; i++ {
		rp := <-rep.reports
		if rp.now > maxNow {
			maxNow = rp.now
		}
		if rp.failed {
			anyFailed = true
			continue
		}
		okRanks[rp.rank] = true
		comps = append(comps, rp.comps...)
		if rp.stepDur > maxDur {
			maxDur = rp.stepDur
		}
		rows += rp.rows
	}
	if anyFailed {
		// Survivor ranks are back on their command channel; release
		// them, then treat the replica as crashed. Completions from the
		// aborted step are discarded: the requests re-serve bit-exactly.
		for rank, ok := range okRanks {
			if ok {
				rep.cmds[rank] <- command{stop: true}
			}
		}
		f.crash(rep, maxNow)
		return
	}
	rep.clock = maxNow
	f.advanceTime(maxNow)
	if rows > 0 {
		f.perTok[rep.id] = maxDur / float64(rows)
		f.observeHealth()
	}
	if len(comps) > 0 {
		sort.Slice(comps, func(i, j int) bool { return comps[i].Req.ID < comps[j].Req.ID })
		f.pushEvent(event{t: maxNow, kind: evComplete, replica: rep.id, comps: comps})
	}
}

// crash retires a replica at virtual time t: mark it failed, account
// or re-dispatch its resident requests by policy, and (under failover)
// schedule its restore + rejoin, priced by the weight re-read.
func (f *fleet) crash(rep *replica, t float64) {
	rep.live = false
	rep.inRotation = false
	f.advanceTime(t)
	f.res.Crashes++
	f.mon.MarkFailed(rep.id)
	f.perTok[rep.id] = 0
	if n := f.liveReplicas(); n < f.res.MinLive {
		f.res.MinLive = n
	}

	ids := make([]int, 0, len(rep.assigned))
	for id := range rep.assigned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fl := f.flights[id]
		delete(rep.assigned, id)
		if fl == nil || fl.done {
			continue
		}
		// A hedged flight whose other copy is still alive loses nothing.
		if other := fl.otherCopy(rep.id); other >= 0 {
			fl.dropCopy(rep.id)
			continue
		}
		fl.dropCopy(rep.id)
		if id < 0 {
			// The warm-up probe died with the warming replica; the
			// rejoin scheduled below reissues it.
			fl.done = true
			continue
		}
		if f.cfg.Policy == NoFailover {
			fl.done = true
			f.res.Dropped++
			f.accounted++
			continue
		}
		fl.attempts++
		f.res.Retries++
		back := retryBackoff * float64(int(1)<<uint(fl.attempts-1))
		f.pushEvent(event{t: t + back, kind: evRetry, id: id, req: fl.req})
	}
	rep.inflight = 0
	rep.pendingAdmit = make([][]serve.Request, f.cfg.Ranks)
	rep.pendingCancel = nil

	if f.cfg.Policy != NoFailover {
		restore := float64(f.paramBytes) / (f.cfg.RestoreBWGiBs * (1 << 30))
		f.res.RestoreSecs += restore
		f.pushEvent(event{t: t + restore, kind: evRejoin, replica: rep.id})
	}
}

// rejoin brings a crashed replica back at virtual time t: wait out the
// old incarnation's goroutines, spawn a fresh world with re-restored
// weights, reset its health history, and dispatch the warm-up probe.
// The replica re-enters rotation only when the probe's tokens verify
// against the reference decode (see processCompletions).
func (f *fleet) rejoin(rep *replica, t float64) {
	<-rep.done
	f.spawn(rep, t)
	rep.inRotation = false // warming: probe first
	rep.rejoinAt = t
	f.mon.Reset(rep.id)

	id := probeID(rep.id)
	probe := serve.Request{
		ID: id, Arrival: t,
		Prompt: append([]int(nil), f.probePrompt...),
		MaxNew: probeTokens,
	}
	f.flights[id] = &flight{req: probe, primary: -1, hedge: -1}
	f.dispatch(probe, rep, t, false)
}

// sortedFlightIDs returns the flight map's keys ascending — the only
// way the map is ever iterated.
func sortedFlightIDs(m map[int]*flight) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
