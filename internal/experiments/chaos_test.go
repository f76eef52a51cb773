package experiments

import (
	"testing"
)

// TestChaosResilienceThresholds is the headline acceptance check: under
// the default fault plan the resilient configuration completes at least
// 95% of transactions, and disabling the policies costs measurably more.
func TestChaosResilienceThresholds(t *testing.T) {
	res := Chaos(1, Options{})[0]

	baseline := res.Get("no faults, resilient/completion")
	resilient := res.Get("faults, resilient/completion")
	fragile := res.Get("faults, fragile/completion")

	if baseline < 0.999 {
		t.Errorf("fault-free completion = %.3f, want 1.0", baseline)
	}
	if resilient < 0.95 {
		t.Errorf("resilient completion under faults = %.3f, want >= 0.95", resilient)
	}
	if fragile >= resilient-0.10 {
		t.Errorf("fragile completion %.3f not measurably below resilient %.3f", fragile, resilient)
	}
	if res.Get("faults, resilient/faults") == 0 {
		t.Error("faulted run applied no faults")
	}
	// Resilience is paid for in retries: the faulted resilient run
	// retries, the fault-free one doesn't need to.
	if res.Get("faults, resilient/amplification") <= res.Get("no faults, resilient/amplification") {
		t.Errorf("retry amplification did not rise under faults: %v vs %v",
			res.Get("faults, resilient/amplification"), res.Get("no faults, resilient/amplification"))
	}
}

// TestChaosDeterministic pins byte-identical reports for same-seed runs —
// the subsystem's core replay guarantee, end to end.
func TestChaosDeterministic(t *testing.T) {
	a := Chaos(2, Options{})[0].String()
	b := Chaos(2, Options{})[0].String()
	if a != b {
		t.Errorf("same-seed chaos reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
