package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one unit of work for the parallel runner: a named, seeded
// experiment run. Each Run call must build its own simulation world
// (scheduler, network, nodes) — every experiment in this package does, so
// concurrent tasks share no mutable state and the runner is race-free by
// construction.
type Task struct {
	Name string
	Seed int64
	Run  func(seed int64) []*Result
}

// Fan runs n independent jobs on up to parallel workers and returns their
// outputs indexed by job number. parallel <= 0 means GOMAXPROCS; parallel
// == 1 (or n == 1) runs inline with no goroutines. Jobs must be mutually
// independent: each builds whatever state it needs and shares nothing
// mutable with its siblings.
//
// Determinism contract: output i depends only on job(i), never on worker
// scheduling, so any parallelism yields identical results to a serial run.
func Fan[T any](n, parallel int, job func(i int) T) []T {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	out := make([]T, n)
	if parallel <= 1 {
		for i := range out {
			out[i] = job(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = job(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// RunTasks executes tasks with up to parallel workers and returns their
// results indexed exactly like tasks. parallel <= 0 means GOMAXPROCS.
//
// Each task owns its simulation clock and RNG, so results depend only on
// (Run, Seed) and a parallel run yields byte-identical output to a serial
// run of the same tasks, which TestRunnerMatchesSerial enforces.
func RunTasks(tasks []Task, parallel int) [][]*Result {
	return Fan(len(tasks), parallel, func(i int) []*Result {
		return tasks[i].Run(tasks[i].Seed)
	})
}

// RegistryTasks builds runner tasks for the named registry experiments at
// the given seed and options, in the order given. Names must exist in
// Registry.
func RegistryTasks(names []string, seed int64, opts Options) []Task {
	registry := Registry(opts)
	tasks := make([]Task, len(names))
	for i, name := range names {
		tasks[i] = Task{Name: name, Seed: seed, Run: registry[name]}
	}
	return tasks
}

// SeedSweep builds one task per seed in [seed, seed+replicas) for the same
// experiment, for replicated runs that average out stochastic effects.
func SeedSweep(name string, run func(seed int64) []*Result, seed int64, replicas int) []Task {
	tasks := make([]Task, replicas)
	for i := range tasks {
		tasks[i] = Task{Name: name, Seed: seed + int64(i), Run: run}
	}
	return tasks
}
