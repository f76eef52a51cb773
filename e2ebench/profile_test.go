package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+fixturePath+" from a fresh profile of one imode-shop run")

// fixturePath is a CPU profile of one imode-shop run at profileHz.
const fixturePath = "testdata/imode-shop.pprof"

func TestChargeTo(t *testing.T) {
	for _, tc := range []struct {
		frames []string // innermost first
		want   string
	}{
		// The innermost module frame wins over its callers.
		{[]string{"mcommerce/internal/webserver.(*parser).feed", "mcommerce/internal/mtcp.(*Conn).deliver", "mcommerce/internal/simnet.(*Scheduler).Step"}, "webserver"},
		// Runtime work below a module frame is charged to that module.
		{[]string{"runtime.mallocgc", "runtime.growslice", "mcommerce/internal/markup.Parse", "mcommerce/internal/imode.(*Gateway).filter"}, "markup"},
		// Closures, methods and generic instances name their package.
		{[]string{"mcommerce/internal/workload.(*Runner).scheduleNext.func1"}, "workload"},
		{[]string{"mcommerce/internal/metrics.sum[...]"}, "metrics"},
		// Background GC goes to runtime.gc, even over a module frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		// No module frame at all.
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"main.(*scaleWorld).run"}, "runtime"},
		// A module outside the layer list.
		{[]string{"mcommerce/internal/adhoc.(*Mesh).route"}, "other"},
		// A path that only shares the prefix's spelling is not a module.
		{[]string{"mcommerce/internalx.f", "mcommerce/internal/core.(*MC).TransactWAP"}, "core"},
	} {
		if got := chargeTo(tc.frames); got != tc.want {
			t.Errorf("chargeTo(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// TestFramesInlined pins the frame order for inlined calls: pprof lists
// a location's lines innermost first, and the leaf location comes first.
func TestFramesInlined(t *testing.T) {
	p := &cpuProfile{
		locFuncs: map[uint64][]uint64{1: {10, 11}, 2: {12}},
		funcName: map[uint64]string{
			10: "runtime.memmove",
			11: "mcommerce/internal/markup.(*Node).Render", // memmove inlined here
			12: "mcommerce/internal/imode.(*Gateway).filter",
		},
		samples: []pprofSample{{locs: []uint64{1, 2}, count: 3}},
	}
	want := []string{"runtime.memmove", "mcommerce/internal/markup.(*Node).Render", "mcommerce/internal/imode.(*Gateway).filter"}
	if got := p.frames(p.samples[0]); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("frames = %q, want %q", got, want)
	}
	a := attribution{}
	a.add(p)
	if !maps.Equal(a, attribution{"markup": 3}) {
		t.Fatalf("attribution = %v, want markup: 3", a)
	}
}

// TestAttributionFixture decodes a checked-in profile and pins how many
// samples each layer is charged.
func TestAttributionFixture(t *testing.T) {
	if *update {
		writeFixture(t)
	}
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseCPUProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	a := attribution{}
	a.add(p)
	var total int64
	for _, s := range p.samples {
		total += s.count
	}
	if a.total() != total {
		t.Errorf("attributed %d samples, profile has %d", a.total(), total)
	}
	want := attribution{
		"apps": 7, "database": 1, "imode": 2, "markup": 5, "mtcp": 14,
		"runtime": 1, "runtime.gc": 70, "security": 1, "simnet": 29,
		"trace": 1, "webserver": 88, "wireless": 6, "workload": 1,
	}
	if !maps.Equal(a, want) {
		t.Errorf("attribution = %v\nwant %v", a, want)
	}
}

func TestParseTruncated(t *testing.T) {
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gunzip(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7, len(raw) / 3, len(raw) - 1} {
		if _, err := parseCPUProfile(raw[:n]); err == nil {
			t.Errorf("profile cut to %d of %d bytes decoded without error", n, len(raw))
		}
	}
}

func gunzip(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// writeFixture profiles one imode-shop run the way the traced phase does.
func writeFixture(t *testing.T) {
	wd, err := buildIModeShop(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	err = wd.run()
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fixturePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes briefly and checks that
// they report exactly the metrics and units BENCHMARK.json lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := scenarioByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	for mode, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out bytes.Buffer
		if err := run([]string{"--workload", "wap-gprs", "--seconds", "0.05", "--trace", mode}, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", mode, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("--trace %s reports %d metrics, BENCHMARK.json lists %d", mode, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("--trace %s: metric %s = %+v (present %v), want unit %s", mode, m.Name, got, ok, m.Unit)
			}
		}
	}
}
