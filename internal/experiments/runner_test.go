package experiments

import (
	"strings"
	"testing"
)

// renderAll flattens a batch of result tables to one text blob, so runs can
// be compared byte-for-byte.
func renderAll(batches [][]*Result) string {
	var b strings.Builder
	for _, results := range batches {
		for _, res := range results {
			b.WriteString(res.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestRunnerMatchesSerial is the golden determinism test for the parallel
// runner: Figure2, Table4 and the TCP-variant comparison must render
// byte-identically whether run serially or on a full worker pool, at the
// same seed. Any divergence means a task leaked state to a sibling or drew
// from a shared RNG.
func TestRunnerMatchesSerial(t *testing.T) {
	tasks := []Task{
		{Name: "fig2", Seed: 7, Run: func(seed int64) []*Result { return []*Result{Figure2(seed, Options{})} }},
		{Name: "table4", Seed: 7, Run: func(seed int64) []*Result { return []*Result{Table4(seed)} }},
		{Name: "tcp", Seed: 7, Run: func(seed int64) []*Result { return TCPVariants(seed, Options{}) }},
	}

	serial := renderAll(RunTasks(tasks, 1))
	if serial == "" {
		t.Fatal("serial run produced no output")
	}
	for _, parallel := range []int{0, 2, 8} {
		got := renderAll(RunTasks(tasks, parallel))
		if got != serial {
			t.Errorf("parallel=%d output differs from serial run", parallel)
		}
	}
}

// TestFanOrderAndCoverage checks Fan's indexing contract: every job runs
// exactly once and its output lands at its own index, regardless of worker
// count.
func TestFanOrderAndCoverage(t *testing.T) {
	const n = 37
	for _, parallel := range []int{1, 3, 64} {
		out := Fan(n, parallel, func(i int) int { return i * i })
		if len(out) != n {
			t.Fatalf("parallel=%d: got %d outputs, want %d", parallel, len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

// TestRegistryTasksSeedSweep covers the task-building helpers.
func TestRegistryTasksSeedSweep(t *testing.T) {
	tasks := RegistryTasks([]string{"fig2", "table1"}, 3, Options{})
	if len(tasks) != 2 || tasks[0].Name != "fig2" || tasks[1].Name != "table1" {
		t.Fatalf("unexpected registry tasks: %+v", tasks)
	}
	for _, task := range tasks {
		if task.Seed != 3 || task.Run == nil {
			t.Fatalf("bad task %q: seed=%d runNil=%v", task.Name, task.Seed, task.Run == nil)
		}
	}

	sweep := SeedSweep("fig2", func(seed int64) []*Result { return nil }, 10, 4)
	if len(sweep) != 4 {
		t.Fatalf("got %d sweep tasks, want 4", len(sweep))
	}
	for i, task := range sweep {
		if task.Seed != 10+int64(i) || task.Name != "fig2" {
			t.Errorf("sweep[%d]: name=%q seed=%d", i, task.Name, task.Seed)
		}
	}
}
