package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseRules feeds ParseRules arbitrary -slo rule files. It must
// never panic, and any rule set it accepts must survive a marshal and
// re-parse unchanged, so a rule file written back out means the same.
func FuzzParseRules(f *testing.F) {
	for _, set := range []string{"default", "syncstorm", "tcpfault", "scale"} {
		b, err := json.Marshal(DefaultRules(set))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"rules": [
		{"name": "p99", "kind": "latency", "series": "core.txn.wap.latency",
		 "quantile": 0.99, "threshold": "2.5s", "window": "5s"},
		{"name": "burn", "kind": "burn_rate", "bad": "errors", "total": "requests",
		 "objective": 0.99, "short_window": "5s", "long_window": "20s", "burn_factor": 2},
		{"name": "cap", "kind": "bound", "series": "x", "max": 0}
	]}`))
	f.Add([]byte(`[{"name": "x", "kind": "latency"}]`))
	f.Add([]byte(`[{"name": "x", "kind": "nope"}]`))
	f.Fuzz(func(t *testing.T, src []byte) {
		rules, err := ParseRules(src)
		if err != nil {
			return
		}
		b, err := json.Marshal(rules)
		if err != nil {
			t.Fatalf("accepted rules do not marshal: %v", err)
		}
		again, err := ParseRules(b)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", b, err)
		}
		if !reflect.DeepEqual(rules, again) {
			t.Fatalf("round trip changed the rules:\n got %+v\nwant %+v", again, rules)
		}
	})
}
