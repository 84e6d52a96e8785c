package mpi

import (
	"math"
	"sync/atomic"

	"bagualu/internal/metrics"
	"bagualu/internal/simnet"
)

// Reliable wire transport. PR 3 turned every injected drop or
// corruption into a fail-stop of the sending rank — a full
// shrink + rollback for a single lost frame. At BaGuaLu scale the
// overwhelmingly common wire fault is transient, so the transport
// layer absorbs it where real interconnects do: each frame already
// carries a sequence number (the per-sender wireSeq stream the
// injector hashes) and a CRC; when reliable transport is enabled the
// sender consults the injector per delivery attempt, and a lost or
// corrupt attempt is retransmitted after an ack-timeout plus bounded
// exponential backoff, all charged to the virtual clock. Only when a
// frame exhausts its retry budget does the receiver see a
// *PayloadFaultError (with Exhausted set), escalating to the PR 3
// recovery path.
//
// The simulation shortcut: because the injector's verdict is a pure
// function of (src, dst, seq), the sender can evaluate the whole
// retransmit conversation at post time — each failed attempt adds the
// timeout, the backoff, and a fresh wire traversal to the message's
// arrival time, and the eventually-delivered payload is the intact
// one. No ack messages need to flow; their cost is folded into
// AckTimeout. Retransmit attempts consume fresh sequence numbers from
// the same per-sender stream, so the schedule stays deterministic for
// a seeded injector regardless of goroutine interleaving.

// TransportConfig bounds the retransmit engine. Zero fields take the
// defaults noted on each field.
type TransportConfig struct {
	// MaxRetries is the number of retransmissions attempted per frame
	// after the initial send before the transport gives up and
	// escalates (default 4).
	MaxRetries int
	// AckTimeout is the virtual time (seconds) the sender waits before
	// declaring an attempt lost — the round-trip of the missing ack
	// (default 2e-6).
	AckTimeout float64
	// BackoffBase is the backoff added to the first retransmission;
	// each further attempt doubles it (default 1e-6).
	BackoffBase float64
	// BackoffMax caps the exponential backoff term (default 64e-6).
	BackoffMax float64
}

func (c TransportConfig) withDefaults() TransportConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2e-6
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 1e-6
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 64e-6
	}
	return c
}

// backoffDelay is the wait before retransmission number attempt+1:
// the ack timeout plus min(BackoffBase * 2^attempt, BackoffMax).
func (c TransportConfig) backoffDelay(attempt int) float64 {
	b := c.BackoffBase * math.Pow(2, float64(attempt))
	if b > c.BackoffMax {
		b = c.BackoffMax
	}
	return c.AckTimeout + b
}

// TransportStats counts the retransmit engine's work. Per-sender
// counters are written only by that sender's goroutine; totals may be
// read from any goroutine once the world has quiesced (or for
// monotonic monitoring mid-run). The timeout+backoff seconds are booked
// on the sender's phase record (metrics.PhaseRetransmit).
type TransportStats struct {
	retrans   []atomic.Int64 // retransmitted frames, by sender
	recovered atomic.Int64
	exhausted atomic.Int64
}

// Retransmits totals retransmitted frames across all senders.
func (s *TransportStats) Retransmits() int64 {
	var t int64
	for i := range s.retrans {
		t += s.retrans[i].Load()
	}
	return t
}

// Recovered counts frames delivered intact after >= 1 retransmission.
func (s *TransportStats) Recovered() int64 { return s.recovered.Load() }

// Exhausted counts frames that ran out of retries and escalated.
func (s *TransportStats) Exhausted() int64 { return s.exhausted.Load() }

// transport is the world's retransmit engine state.
type transport struct {
	cfg   TransportConfig
	stats TransportStats
}

// EnableReliableTransport arms the retransmit engine. Install before
// Run, alongside SetWireFaultFn; without an armed wire-fault hook it
// has no observable effect (there is nothing to retransmit).
func (w *World) EnableReliableTransport(cfg TransportConfig) {
	t := &transport{cfg: cfg.withDefaults()}
	t.stats.retrans = make([]atomic.Int64, w.size)
	w.transport = t
}

// Transport returns the retransmit counters, or nil when reliable
// transport is not enabled.
func (w *World) Transport() *TransportStats {
	if w.transport == nil {
		return nil
	}
	return &w.transport.stats
}

// deliverReliable runs the retransmit conversation for one frame.
// attemptCost is the wire cost of one traversal (already stretched by
// the straggler multiplier); each failed attempt pushes the arrival
// time out by timeout + backoff + another traversal. On success the
// intact payload is checksummed and delivered; on exhaustion the
// payload is destroyed and the message becomes an escalation
// tombstone the receiver converts to *PayloadFaultError{Exhausted}.
func (w *World) deliverReliable(m *message, dst, n int, level simnet.Level, attemptCost float64) {
	t := w.transport
	for attempt := 0; ; attempt++ {
		seq := w.wireSeq[m.src].Add(1) - 1
		if w.wireFault(m.src, dst, seq) == WireOK {
			m.crc = payloadCRC(m)
			m.checked = true
			m.attempts = attempt + 1
			if attempt > 0 {
				t.stats.recovered.Add(1)
			}
			return
		}
		if attempt >= t.cfg.MaxRetries {
			releaseStaged(m)
			m.data, m.u16, m.ints = nil, nil, nil
			m.dropped = true
			m.exhausted = true
			m.attempts = attempt + 1
			t.stats.exhausted.Add(1)
			return
		}
		delay := t.cfg.backoffDelay(attempt)
		m.arrive += delay + attemptCost
		t.stats.retrans[m.src].Add(1)
		w.phases[m.src].Observe(metrics.PhaseRetransmit, delay)
		// The retransmission occupies the wire again.
		w.stats.Msgs[level].Add(1)
		w.stats.Bytes[level].Add(int64(n))
	}
}

// Link-delay telemetry. Every received message carries its send time
// and its nominal (un-delayed) wire cost, so the receiver can compute
// the observed slowdown of the (src -> dst) link: straggler
// multipliers show up exactly, retransmit conversations show up as a
// transient inflation. Rows are owned by the receiving rank's
// goroutine (single writer, single reader), so accumulation is
// race-free without locks; per-step means are order-independent,
// which keeps downstream health scoring deterministic under goroutine
// interleaving.
type linkObs struct {
	sum [][]float64 // [receiver][sender] accumulated multiplier
	cnt [][]float64
}

func (w *World) observeLink(dst, src int, mult float64) {
	o := w.linkObs
	if o.sum[dst] == nil {
		o.sum[dst] = make([]float64, w.size)
		o.cnt[dst] = make([]float64, w.size)
	}
	o.sum[dst][src] += mult
	o.cnt[dst][src]++
}

// TakeLinkObservations returns this rank's mean observed link
// multiplier per sender (indexed by global rank, 0 = no samples)
// accumulated since the last call, and resets the accumulators. Only
// the owning rank's goroutine may call it.
func (c *Comm) TakeLinkObservations() []float64 {
	w := c.proc.w
	me := c.proc.global
	out := make([]float64, w.size)
	row := w.linkObs.sum[me]
	if row == nil {
		return out
	}
	cnt := w.linkObs.cnt[me]
	for s := range row {
		if cnt[s] > 0 {
			out[s] = row[s] / cnt[s]
		}
		row[s], cnt[s] = 0, 0
	}
	return out
}
