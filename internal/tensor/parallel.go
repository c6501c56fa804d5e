package tensor

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// PlaneJob is a unit of batched per-plane work for ParallelPlanes. It is
// an interface rather than a func so callers can pass a pooled struct
// pointer: interface conversion of a pointer does not allocate, which is
// what keeps the steady-state compress/decompress path allocation-free.
type PlaneJob interface {
	// RunPlane processes plane p. Implementations must be safe to call
	// concurrently for distinct p. They may open nested rounds.
	RunPlane(p int)
}

// funcJob adapts a func to PlaneJob; a func value is pointer-shaped, so
// the conversion does not allocate.
type funcJob func(int)

func (f funcJob) RunPlane(p int) { f(p) }

// workerCap is the process-wide round cap; 0 means GOMAXPROCS.
var workerCap atomic.Int64

// SetMaxWorkers sets the process-wide cap on the goroutines that run
// one round, the caller included, and returns the previous setting.
// n < 1 restores the default, runtime.GOMAXPROCS(0) at each call, which
// reads as 0. A round reads the cap once when it opens, so this is safe
// to call while rounds run.
func SetMaxWorkers(n int) int {
	return int(workerCap.Swap(int64(max(n, 0))))
}

// exec is the one fork-join executor behind every parallel loop. A
// round is one ParallelPlanes call: its caller claims and runs indices
// itself, and resident helpers join open rounds, at most cap−1 per
// round, claiming from the same counter. A helper whose body opens a
// nested round becomes that round's caller, so nesting adds no
// goroutines: at most GOMAXPROCS−1 helpers plus the external callers
// run bodies at once. Helpers are spawned up to GOMAXPROCS−1, read at
// each call, and never exit; if GOMAXPROCS shrinks, the surplus idles.
var exec struct {
	mu      sync.Mutex
	wake    sync.Cond // idle helpers wait here for an open round
	open    []*round  // rounds that may still take a helper, oldest first
	free    []*round  // finished rounds, reused so dispatch allocates nothing
	helpers int       // spawned
	idle    int       // waiting on wake
	busy    int       // running a round
	limit   int       // GOMAXPROCS−1 at the latest call
}

func init() { exec.wake.L = &exec.mu }

// round is one ParallelPlanes call. job, n and seats are set under
// exec.mu before the round is published.
type round struct {
	job   PlaneJob
	n     int64
	next  atomic.Int64
	seats int // helpers that may still join; guarded by exec.mu
	wg    sync.WaitGroup
}

// run claims and runs indices until the round has none left.
func (r *round) run() {
	for i := r.next.Add(1) - 1; i < r.n; i = r.next.Add(1) - 1 {
		r.job.RunPlane(int(i))
	}
}

// helper is a resident executor goroutine: it joins the newest open
// round with unclaimed indices, runs its share, and sleeps when no
// round is open.
func helper() {
	exec.mu.Lock()
	for {
		var r *round
		for i := len(exec.open) - 1; i >= 0 && r == nil && exec.busy < exec.limit; i-- {
			if o := exec.open[i]; o.next.Load() < o.n {
				r = o
			}
		}
		if r == nil {
			exec.idle++
			exec.wake.Wait()
			exec.idle--
			continue
		}
		if r.seats--; r.seats == 0 {
			exec.open = slices.DeleteFunc(exec.open, func(o *round) bool { return o == r })
		}
		exec.busy++
		r.wg.Add(1)
		exec.mu.Unlock()
		r.run()
		r.wg.Done()
		exec.mu.Lock()
		exec.busy--
	}
}

// ParallelPlanes runs job.RunPlane(p) for p in [0, planes) on the shared
// executor and returns when every call has returned. At most maxWorkers
// goroutines run the round, the caller included; maxWorkers < 1 means
// the process-wide cap (SetMaxWorkers). The caller always runs indices
// itself, so a busy executor slows a round but never stalls it, and a
// round of one worker runs in index order on the caller's goroutine.
// Dispatch allocates nothing, so this is the iteration primitive for
// the zero-allocation compress/decompress path.
func ParallelPlanes(planes, maxWorkers int, job PlaneJob) {
	procs, w := runtime.GOMAXPROCS(0), maxWorkers
	if w < 1 {
		w = int(workerCap.Load())
	}
	if w < 1 || w > procs {
		w = procs
	}
	if w = min(w, planes); w < 2 {
		for p := 0; p < planes; p++ {
			job.RunPlane(p)
		}
		return
	}
	exec.mu.Lock()
	exec.limit = procs - 1
	for ; exec.helpers < exec.limit; exec.helpers++ {
		go helper()
	}
	// A free list rather than a sync.Pool: a pool pays an allocation
	// after every GC.
	var r *round
	if k := len(exec.free); k > 0 {
		r, exec.free = exec.free[k-1], exec.free[:k-1]
	} else {
		r = new(round)
	}
	r.job, r.n, r.seats = job, int64(planes), w-1
	r.next.Store(0)
	exec.open = append(exec.open, r)
	wake := min(w-1, exec.idle)
	exec.mu.Unlock()
	for i := 0; i < wake; i++ {
		exec.wake.Signal()
	}
	if wake > 0 {
		// Signal queues a woken helper on this P, where it waits until
		// another P steals it; yielding starts it now and lets an idle
		// P take the caller.
		runtime.Gosched()
	}
	r.run()
	exec.mu.Lock()
	// No helper joins once r is off the list; wait for those that did.
	exec.open = slices.DeleteFunc(exec.open, func(o *round) bool { return o == r })
	exec.mu.Unlock()
	r.wg.Wait()
	r.job = nil
	exec.mu.Lock()
	exec.free = append(exec.free, r)
	exec.mu.Unlock()
}

// ParallelFor runs f(i) for i in [0, n) on the shared executor under
// the process-wide cap (the NN substrate uses it for per-sample
// convolution work).
func ParallelFor(n int, f func(i int)) { ParallelPlanes(n, 0, funcJob(f)) }
