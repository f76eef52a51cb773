package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcommerce/internal/experiments/optionstest"
)

func TestRunSmallLoad(t *testing.T) {
	if err := run([]string{"-users", "3", "-duration", "30s"}, io.Discard); err != nil {
		t.Errorf("wlan load: %v", err)
	}
}

func TestRunCellularLoad(t *testing.T) {
	if err := run([]string{"-bearer", "cellular", "-cell", "edge", "-users", "2", "-duration", "20s"}, io.Discard); err != nil {
		t.Errorf("edge load: %v", err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" for any error
	}{
		{[]string{"-bearer", "smoke-signals"}, ""},
		{[]string{"-wlan", "802.11zz"}, ""},
		{[]string{"-bearer", "cellular", "-cell", "7g"}, ""},
		{[]string{"-users", "0"}, ""},
		{[]string{"-shards", "0"}, ""},
		{[]string{"-scale", "-stations", "70000"}, ""},
		// Each tier config silently replaces these with its default.
		{[]string{"-scale", "-gateways", "0"}, "-gateways must be >= 1, got 0"},
		{[]string{"-scale", "-cells", "0"}, "-cells must be >= 1, got 0"},
		{[]string{"-scale", "-stations", "0"}, "-stations must be >= 1, got 0"},
		{[]string{"-sync", "-devices", "0"}, "-devices must be >= 1, got 0"},
		{[]string{"-sync", "-gateways", "0"}, "-gateways must be >= 1, got 0"},
		{[]string{"-sync", "-cells", "0"}, "-cells must be >= 1, got 0"},
		{[]string{"-sync", "-replicas", "0"}, "-replicas must be >= 1, got 0"},
		{[]string{"-sync", "-replicas", "-1"}, "-replicas must be >= 1, got -1"},
		{[]string{"-scale", "-remote", "0"}, "-remote must be in 1..1000, got 0"},
		{[]string{"-scale", "-remote", "-5"}, "-remote must be in 1..1000, got -5"},
		{[]string{"-scale", "-remote", "2000"}, "-remote must be in 1..1000, got 2000"},
		{[]string{"-scale", "-duration", "0s"}, "-duration must be > 0, got 0s"},
		{[]string{"-scale", "-duration", "-1s"}, "-duration must be > 0, got -1s"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("args %v accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %q, want it to contain %q", tc.args, err, tc.want)
		}
	}
}

// standardSpellings is every -wlan/-cell spelling mcsim or mcload has
// accepted, with the standard it must resolve to. mcsim's tests carry
// the same table.
var standardSpellings = []struct {
	bearer, flag, spelling, want string
}{
	{"wlan", "-wlan", "bluetooth", "Bluetooth"},
	{"wlan", "-wlan", "Bluetooth", "Bluetooth"},
	{"wlan", "-wlan", "802.11b", "802.11b (Wi-Fi)"},
	{"wlan", "-wlan", "802.11b (Wi-Fi)", "802.11b (Wi-Fi)"},
	{"wlan", "-wlan", "wifi", "802.11b (Wi-Fi)"},
	{"wlan", "-wlan", "Wi-Fi", "802.11b (Wi-Fi)"},
	{"wlan", "-wlan", "802.11a", "802.11a"},
	{"wlan", "-wlan", "hiperlan2", "HiperLAN2"},
	{"wlan", "-wlan", "HiperLAN2", "HiperLAN2"},
	{"wlan", "-wlan", "802.11g", "802.11g"},
	{"cellular", "-cell", "gsm", "GSM"},
	{"cellular", "-cell", "tdma", "TDMA"},
	{"cellular", "-cell", "cdma", "CDMA"},
	{"cellular", "-cell", "gprs", "GPRS"},
	{"cellular", "-cell", "edge", "EDGE"},
	{"cellular", "-cell", "cdma2000", "CDMA2000"},
	{"cellular", "-cell", "WCDMA", "WCDMA"},
	{"cellular", "-cell", "wcdma", "WCDMA"},
	{"cellular", "-cell", "umts", "WCDMA"},
	{"cellular", "-cell", "amps", "AMPS"},
	{"cellular", "-cell", "tacs", "TACS"},
}

// TestStandardLookupAliases drives each spelling through the CLI and reads
// the resolved standard off the report's bearer line. mcload places no
// circuit-switched call, so on the circuit-switched standards (AMPS,
// TACS, GSM, TDMA) account setup never finishes: there the run must
// fail at setup, past name lookup.
func TestStandardLookupAliases(t *testing.T) {
	for _, tc := range standardSpellings {
		var out strings.Builder
		err := run([]string{"-bearer", tc.bearer, tc.flag, tc.spelling, "-users", "1", "-duration", "1s"}, &out)
		if err != nil {
			if !strings.Contains(err.Error(), "setup incomplete") {
				t.Errorf("mcload %s %q: %v", tc.flag, tc.spelling, err)
			}
			continue
		}
		prefix := "WLAN "
		if tc.bearer == "cellular" {
			prefix = "cellular "
		}
		if line := "bearer: " + prefix + tc.want + "\n"; !strings.Contains(out.String(), line) {
			t.Errorf("mcload %s %q: report lacks %q", tc.flag, tc.spelling, line)
		}
	}
}

// scaleArgs is the golden scale scenario shared by the cmp tests: small
// enough to run in milliseconds, busy enough that every shard serves
// cross-backbone traffic.
func scaleArgs(shards string, extra ...string) []string {
	args := []string{"-scale", "-seed", "7", "-gateways", "3", "-cells", "2",
		"-stations", "20", "-duration", "5s", "-think", "300ms", "-shards", shards}
	return append(args, extra...)
}

// TestScaleShardsGolden pins the acceptance contract on the command
// surface: -shards 4 output (report + metrics dump + Perfetto trace
// file) is byte-identical to -shards 1 at the same seed.
func TestScaleShardsGolden(t *testing.T) {
	dir := t.TempDir()
	capture := func(shards string) (string, string) {
		tf := filepath.Join(dir, "trace-"+shards+".json")
		var b strings.Builder
		if err := run(scaleArgs(shards, "-metrics", "-trace", tf), &b); err != nil {
			t.Fatalf("-shards %s: %v", shards, err)
		}
		raw, err := os.ReadFile(tf)
		if err != nil {
			t.Fatal(err)
		}
		// The report echoes the trace path, which necessarily differs
		// between the two invocations; normalize it before comparing.
		return strings.ReplaceAll(b.String(), tf, "TRACE"), string(raw)
	}
	out1, trace1 := capture("1")
	out4, trace4 := capture("4")
	if out1 != out4 {
		t.Errorf("stdout differs between -shards 1 and -shards 4:\n--- shards=1\n%s\n--- shards=4\n%s", out1, out4)
	}
	if trace1 != trace4 {
		t.Error("Perfetto trace files differ between -shards 1 and -shards 4")
	}
	for _, want := range []string{"scale: 3 clusters", "shards: 3, lookahead", "telemetry registry", "trace: "} {
		if !strings.Contains(out1, want) {
			t.Errorf("scale report missing %q:\n%s", want, out1)
		}
	}
}

// TestScaleSameSeedDeterministic re-runs the same invocation twice and
// expects byte-identical output (the weaker property the golden test
// builds on, isolated so a failure points at the right layer).
func TestScaleSameSeedDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run(scaleArgs("2"), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(scaleArgs("2"), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same-seed scale runs are not byte-identical")
	}
}

// TestFlagSurface pins every flag mcload registers, with its default.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlagSet()
	optionstest.Surface(t, fs, map[string]string{
		"bearer": "wlan", "cc": "reno", "cell": "gprs", "cells": "2",
		"cpuprofile": "", "devices": "100", "duration": "2m0s",
		"engine-timeline": "", "fragile": "false", "gateways": "4",
		"memprofile": "", "metrics": "false", "mutexprofile": "",
		"no-chaos": "false", "policy": "lww", "remote": "200", "replicas": "2",
		"scale": "false", "seed": "1", "shards": "1", "slo": "",
		"stations": "50", "sync": "false", "sync-mean": "4s", "think": "2s",
		"timeline": "", "timeline-interval": "100ms", "trace": "",
		"trace-sample": "1", "users": "10", "wlan": "802.11b", "write-mean": "2s",
	})
}

func TestSharedFlagErrors(t *testing.T) {
	fs, _ := newFlagSet()
	optionstest.RejectsBadValues(t, fs, func(args []string) error { return run(args, io.Discard) })
}

// TestEveryTierHonoursMetricsAndTrace runs each tier with the shared
// -metrics and -trace flags: every one must dump its registry and write
// the Perfetto file.
func TestEveryTierHonoursMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"full":  {"-users", "2", "-duration", "10s"},
		"scale": scaleArgs("1"),
		"sync":  {"-sync", "-gateways", "2", "-cells", "1", "-devices", "10", "-duration", "5s"},
	} {
		tf := filepath.Join(dir, name+".json")
		var out strings.Builder
		if err := run(append(args, "-metrics", "-trace", tf), &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range []string{"\ntelemetry registry (", "trace: "} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s tier output lacks %q", name, want)
			}
		}
		if fi, err := os.Stat(tf); err != nil || fi.Size() == 0 {
			t.Errorf("%s tier wrote no trace file: %v", name, err)
		}
	}
}
