// Package simnet is a deterministic discrete-event network simulation
// kernel. It is the substrate on which every other subsystem of the mobile
// commerce reproduction is built: wired LAN/WAN links (component (v) of the
// paper's model), and — via the Medium interface — the wireless LAN and
// cellular radio models in internal/wireless and internal/cellular.
//
// The kernel provides:
//
//   - a virtual clock and an event scheduler (Scheduler) with cancellable
//     timers, driven by a hierarchical timing wheel that fires events in
//     (time, sequence) order so that execution order is fully
//     deterministic for a given seed;
//   - packets (Packet) with simulated wire sizes decoupled from their Go
//     payloads, so protocol headers can be accounted for without byte-level
//     marshalling;
//   - nodes (Node) with interfaces, static routing, protocol demultiplexing
//     and forwarding taps (used by the Snoop agent and Mobile IP);
//   - point-to-point duplex links (Link) with bandwidth, propagation delay,
//     drop-tail queues and random loss, which model the paper's wired
//     networks component.
//
// All simulation state is single-threaded: callbacks run on the goroutine
// that calls Scheduler.Run. Determinism is a design requirement — every
// experiment in EXPERIMENTS.md must be exactly repeatable from its seed.
//
// For worlds too large for one core, Sharded runs several Networks — one
// per topology shard — under a conservative time-window protocol
// (builders place each node on a shard; CrossLink carries packets
// between shards, and the smallest cross-link delay is the window
// width). Each shard keeps the single-goroutine ownership
// story above: within a window exactly one goroutine drives a shard's
// scheduler, registry, tracer and pools, and a shared scoreboard orders
// each shard's windows after the ring drains they depend on. Execution is
// invariant to the number of worker goroutines, so a parallel run is
// byte-identical to a serial one at the same seed.
package simnet
