// Package par provides the bounded, deterministic fan-out/fan-in primitive
// behind the parallel sweep harness: evaluate a function over a slice of
// independent work items on a fixed-size worker pool and collect the
// results in input order. Determinism is structural — each item's result
// lands in its input slot and items share no mutable state — so the output
// is byte-identical regardless of the worker count, including the serial
// workers=1 case.
//
// This is what lets the paper-artifact sweeps and the offline fleet of
// Figs. 7 and 13 (both internal/experiments, via Options.Workers; the fleet
// runs one discrete-event simulation per node) use every host core while
// keeping reports reproducible: parallelism here fans out whole
// single-threaded simulations, never threads within one. Panics propagate —
// a panicking item stops the pool and re-raises on the caller, so a sweep
// cannot silently lose points.
package par

import (
	"runtime"
	"sync"
)

// Map evaluates fn over items on at most `workers` goroutines and returns
// the results in input order. workers <= 0 selects GOMAXPROCS; workers is
// never larger than len(items). With one worker the items run serially on
// the calling goroutine.
//
// fn must be safe for concurrent invocation across items. A panic in any
// invocation is re-raised on the calling goroutine after all workers stop.
func Map[P, R any](workers int, items []P, fn func(P) R) []R {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		for i := range items {
			out[i] = fn(items[i])
		}
		return out
	}

	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup

		panicOnce sync.Once
		panicked  interface{}
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					// Fail fast: stop other workers from claiming the
					// remaining items before the panic is re-raised.
					mu.Lock()
					next = len(items)
					mu.Unlock()
				}
			}()
			for {
				i := claim()
				if i >= len(items) {
					return
				}
				out[i] = fn(items[i])
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}
