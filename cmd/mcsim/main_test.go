package main

import (
	"strings"
	"testing"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/experiments"
	"mcommerce/internal/experiments/optionstest"
	"mcommerce/internal/wireless"
)

func TestRunSmallWLANScenario(t *testing.T) {
	if err := run([]string{"-clients", "2", "-rounds", "2", "-middleware", "imode"}); err != nil {
		t.Errorf("wlan scenario: %v", err)
	}
}

func TestRunFaultedScenarioDeterministic(t *testing.T) {
	sc := scenario{middleware: "wap", clients: 2, rounds: 2, faults: true}
	std := wireless.IEEE80211b
	sc.Bearer = core.BearerWLAN
	sc.WLANStandard = std
	var a, b strings.Builder
	if err := runOne(sc, 1, &a); err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if err := runOne(sc, 1, &b); err != nil {
		t.Fatalf("faulted rerun: %v", err)
	}
	if a.String() != b.String() {
		t.Error("same-seed faulted reports are not byte-identical")
	}
	if !strings.Contains(a.String(), "fault injection: applied=") {
		t.Error("report missing fault-injection statistics")
	}
	if !strings.Contains(a.String(), "node gateway crash") {
		t.Error("fault log missing the gateway crash")
	}
}

// TestRunShardsGolden pins -shards byte-identity on the mcsim surface:
// worker lanes over the (single-partition) full-fidelity world must not
// change a byte of the report, including the telemetry dump.
func TestRunShardsGolden(t *testing.T) {
	std := wireless.IEEE80211b
	base := scenario{middleware: "wap", clients: 2, rounds: 2,
		Options: experiments.Options{Metrics: true, Bearer: core.BearerWLAN, WLANStandard: std}}
	var want string
	for _, shards := range []int{1, 4} {
		sc := base
		sc.Shards = shards
		var b strings.Builder
		if err := runOne(sc, 1, &b); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards == 1 {
			want = b.String()
			continue
		}
		if b.String() != want {
			t.Errorf("report differs between -shards 1 and -shards %d", shards)
		}
	}
}

func TestRunCellularCircuitScenario(t *testing.T) {
	if err := run([]string{"-bearer", "cellular", "-cell", "gsm", "-clients", "1", "-rounds", "1"}); err != nil {
		t.Errorf("gsm scenario: %v", err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-bearer", "carrier-pigeon"},
		{"-bearer", "wlan", "-wlan", "802.11zz"},
		{"-bearer", "cellular", "-cell", "6g"},
		{"-middleware", "bogus"},
		{"-clients", "0"},
		{"-clients", "-3"},
		{"-rounds", "-1"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// standardSpellings is every -wlan/-cell spelling mcsim or mcload has
// accepted, with the standard it must resolve to. mcload's tests carry
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

func TestStandardLookups(t *testing.T) {
	for _, tc := range standardSpellings {
		var name string
		if tc.bearer == "wlan" {
			std, err := wireless.StandardByName(tc.spelling)
			if err != nil {
				t.Fatalf("%s %q: %v", tc.flag, tc.spelling, err)
			}
			name = std.Name
		} else {
			std, err := cellular.StandardByName(tc.spelling)
			if err != nil {
				t.Fatalf("%s %q: %v", tc.flag, tc.spelling, err)
			}
			name = std.Name
		}
		if name != tc.want {
			t.Errorf("%s %q resolved to %q, want %q", tc.flag, tc.spelling, name, tc.want)
		}
		// The CLI accepts the spelling; voice-only 1G standards then fail
		// at call setup, never at name lookup.
		err := run([]string{"-bearer", tc.bearer, tc.flag, tc.spelling, "-clients", "1", "-rounds", "0"})
		if err != nil && strings.Contains(err.Error(), "unknown") {
			t.Errorf("mcsim %s %q: %v", tc.flag, tc.spelling, err)
		}
	}
	if _, err := wireless.StandardByName("802.11z"); err == nil {
		t.Error("unknown WLAN standard accepted")
	}
	if _, err := cellular.StandardByName("lte"); err == nil {
		t.Error("unknown cellular standard accepted")
	}
}

func TestAnalogBearerFailsCleanly(t *testing.T) {
	err := run([]string{"-bearer", "cellular", "-cell", "amps", "-clients", "1", "-rounds", "1"})
	if err == nil || !strings.Contains(err.Error(), "place call") {
		t.Errorf("AMPS scenario err = %v", err)
	}
}

// TestFlagSurface pins every flag mcsim registers, with its default.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlagSet()
	optionstest.Surface(t, fs, map[string]string{
		"bearer": "wlan", "cc": "reno", "cell": "gprs", "clients": "5",
		"cpuprofile": "", "db-replicas": "0", "faults": "false",
		"memprofile": "", "metrics": "false", "metrics-format": "text",
		"middleware": "wap", "mutexprofile": "", "packet-trace": "false",
		"parallel": "0", "replicas": "1", "rounds": "10", "seed": "1",
		"shards": "1", "slo": "", "timeline": "", "timeline-interval": "100ms",
		"trace": "", "trace-sample": "1", "wlan": "802.11b",
	})
}

func TestSharedFlagErrors(t *testing.T) {
	fs, _ := newFlagSet()
	optionstest.RejectsBadValues(t, fs, run)
}
