package tensor

import (
	"runtime"
	"sync"
)

// Kernel parallelism runs on a pool of persistent worker goroutines
// fed by an unbuffered task channel, replacing per-call goroutine
// spawn. The rendezvous design is what makes nested parallelism safe:
// a chunk is handed to a worker only if one is parked in receive at
// that instant, otherwise the submitting goroutine runs it inline. No
// task is ever queued, so a kernel that itself calls Parallel from
// inside a worker (e.g. an MoE expert GEMM launched from a per-expert
// worker) degrades to inline execution instead of deadlocking.

// maxWorkers caps kernel parallelism. It defaults to GOMAXPROCS and
// can be lowered in tests (setMaxWorkers).
var (
	workerMu   sync.RWMutex
	maxWorkers = runtime.GOMAXPROCS(0)
)

// Workers returns the current kernel parallelism bound.
func Workers() int {
	workerMu.RLock()
	defer workerMu.RUnlock()
	return maxWorkers
}

// minParallel is the smallest amount of work (in loop iterations) per
// goroutine that makes fan-out worthwhile; below it kernels run
// serially.
const minParallel = 2048

// task is one chunk of a parallel kernel.
type task struct {
	fn   func(start, end int)
	s, e int
	wg   *sync.WaitGroup
}

var (
	workersOnce sync.Once
	taskCh      chan task
	wgPool      = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// startWorkers spins up the persistent workers, once, on first
// parallel dispatch. The pool size is GOMAXPROCS at that moment;
// setMaxWorkers only bounds how many chunks a call fans out, so a
// lower bound simply leaves workers parked.
func startWorkers() {
	n := runtime.GOMAXPROCS(0)
	taskCh = make(chan task) // unbuffered: rendezvous handoff only
	for i := 0; i < n; i++ {
		go func() {
			for t := range taskCh {
				t.fn(t.s, t.e)
				t.wg.Done()
			}
		}()
	}
}

// dispatch splits [0,n) into up to w chunks, offers all but the first
// to parked workers, runs the first (plus any unclaimed chunk) inline,
// and waits for completion.
func dispatch(n, w int, fn func(start, end int)) {
	workersOnce.Do(startWorkers)
	chunk := (n + w - 1) / w
	wg := wgPool.Get().(*sync.WaitGroup)
	for start := chunk; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		select {
		case taskCh <- task{fn: fn, s: start, e: end, wg: wg}:
		default:
			// No worker parked: run inline, keep making progress.
			fn(start, end)
			wg.Done()
		}
	}
	fn(0, chunk)
	wg.Wait()
	wgPool.Put(wg)
}

// Parallel splits [0,n) into contiguous chunks and runs fn on each
// chunk, using up to Workers() persistent workers. fn is called with
// half-open ranges [start,end). It runs serially when n is small.
func Parallel(n int, fn func(start, end int)) { ParallelWork(n, 1, fn) }

// ParallelWork is Parallel for a loop whose n iterations each run per
// inner iterations — the rows of a matrix, per its width. Whether to
// fan out is decided on the n*per total, so a 512×512 row-wise kernel
// is not mistaken for 512 iterations of work.
func ParallelWork(n, per int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	w := min(Workers(), n)
	if w <= 1 || n*per < minParallel {
		fn(0, n)
		return
	}
	dispatch(n, w, fn)
}

// ParallelRows runs fn on row ranges of a matrix with rows rows,
// forcing fan-out whenever rows >= 2, regardless of the per-row cost.
// Use for kernels whose rows are individually expensive (e.g. GEMM
// panels).
func ParallelRows(rows int, fn func(start, end int)) {
	if rows <= 0 {
		return
	}
	w := Workers()
	if w <= 1 || rows < 2 {
		fn(0, rows)
		return
	}
	if w > rows {
		w = rows
	}
	dispatch(rows, w, fn)
}
