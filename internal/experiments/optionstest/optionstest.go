// Package optionstest holds the checks mcsim, mcload and mcbench share
// on their command-line surface: the flags each registers, and the error
// each bad value of a shared flag gives.
package optionstest

import (
	"flag"
	"testing"
)

// BadValues are bad values of the shared flags, each with the error it
// gives on every CLI that registers the flag.
var BadValues = []struct{ Flag, Value, Err string }{
	{"shards", "0", "-shards must be >= 1, got 0"},
	{"timeline-interval", "0", "-timeline-interval must be > 0, got 0s"},
	{"trace-sample", "0", "-trace-sample must be >= 1, got 0"},
	{"cc", "bogus", `mtcp: unknown congestion control "bogus" (want reno or cubic)`},
	{"slo", "/no/such/file.json", "-slo: open /no/such/file.json: no such file or directory"},
	{"wlan", "802.11zz", `unknown WLAN standard "802.11zz"`},
	{"cell", "7g", `unknown cellular standard "7g"`},
}

// Surface checks that fs registers exactly the flags in want, mapped to
// their defaults, so a dropped, added or renamed flag fails.
func Surface(t *testing.T, fs *flag.FlagSet, want map[string]string) {
	t.Helper()
	seen := 0
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := want[f.Name]
		switch {
		case !ok:
			t.Errorf("unexpected flag -%s (default %q)", f.Name, f.DefValue)
		case def != f.DefValue:
			t.Errorf("-%s default = %q, want %q", f.Name, f.DefValue, def)
		}
		seen++
	})
	if seen != len(want) {
		for name := range want {
			if fs.Lookup(name) == nil {
				t.Errorf("flag -%s is not registered", name)
			}
		}
	}
}

// RejectsBadValues runs every BadValues case whose flag fs registers
// through run and checks the error text.
func RejectsBadValues(t *testing.T, fs *flag.FlagSet, run func(args []string) error) {
	t.Helper()
	for _, tc := range BadValues {
		if fs.Lookup(tc.Flag) == nil {
			continue
		}
		err := run([]string{"-" + tc.Flag, tc.Value})
		if err == nil || err.Error() != tc.Err {
			t.Errorf("-%s %s: err = %v, want %q", tc.Flag, tc.Value, err, tc.Err)
		}
	}
}
