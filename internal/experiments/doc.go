// Package experiments regenerates every figure and table of the paper from
// the running system, plus the prose claims of Section 5.2 and the design
// ablations DESIGN.md calls out. Each experiment is a pure function from a
// deterministic seed (plus, where it reads -cc, -shards or -timeline, the
// run Options) to a Result (a printable table plus structured values),
// shared by the cmd/mcbench CLI and the repository's testing.B
// benchmarks. Options is also the flag surface all three CLIs share.
//
// Experiment index (see DESIGN.md §3 for the full mapping):
//
//	Figure1    EC system structure and baseline transaction
//	Figure2    MC system structure and six-component transaction
//	Table1     the eight application workloads
//	Table2     the five mobile stations
//	Table3     WAP vs i-mode middleware comparison
//	Table4     WLAN standards: goodput vs distance
//	Table5     cellular standards: switching behaviour and rates
//	TCPVariants  §5.2 mobile-TCP claims (BER sweep + reconnection)
//	MobileIPRoaming  §5.2 Mobile IP transparency
//	Ablations  WMLC encoding, 3G QoS, security overhead, DB sync
package experiments
