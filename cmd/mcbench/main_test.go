package main

import (
	"strings"
	"testing"

	"mcommerce/internal/experiments/optionstest"
)

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "nonsense"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// fig1 is the cheapest experiment; it must run end to end.
	if err := run([]string{"-exp", "fig1", "-seed", "3"}); err != nil {
		t.Errorf("run fig1: %v", err)
	}
}

func TestRunScaleShards(t *testing.T) {
	if err := run([]string{"-exp", "scale", "-shards", "4", "-seed", "3"}); err != nil {
		t.Errorf("scale with 4 lanes: %v", err)
	}
	fs, c := newFlagSet()
	if err := fs.Parse([]string{"-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	if c.opts.Shards != 4 {
		t.Errorf("Options.Shards = %d, want 4", c.opts.Shards)
	}
	if err := run([]string{"-shards", "0"}); err == nil {
		t.Error("-shards 0 accepted")
	}
}

func TestRunCSVFormat(t *testing.T) {
	if err := run([]string{"-exp", "fig1", "-format", "csv"}); err != nil {
		t.Errorf("csv run: %v", err)
	}
	if err := run([]string{"-exp", "fig1", "-format", "yaml"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestFlagSurface pins every flag mcbench registers, with its default.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlagSet()
	optionstest.Surface(t, fs, map[string]string{
		"cc": "reno", "cpuprofile": "", "exp": "all", "format": "text",
		"memprofile": "", "metrics": "false", "mutexprofile": "",
		"parallel": "0", "seed": "1", "shards": "1", "timeline": "",
		"timeline-interval": "250ms",
	})
}

func TestSharedFlagErrors(t *testing.T) {
	fs, _ := newFlagSet()
	optionstest.RejectsBadValues(t, fs, run)
}
