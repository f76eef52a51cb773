package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/simnet"
	"mcommerce/internal/workload"
)

// The scale experiment exercises the sharded executor at population
// sizes the full-fidelity deployments cannot reach: G gateway clusters,
// each a host plus C cell aggregator nodes carrying S virtual stations
// apiece (workload.Flows). Cluster c runs on shard c, so the
// inter-cluster backbone ring is the cut set and its delay the
// lookahead. A configurable per-mille of every cell's stations target
// the next cluster's host, keeping the backbone (and the cross-shard
// machinery) under continuous load.

// Link profiles of the scale topology. The uplinks stay inside a
// cluster's shard; the backbone delay is the conservative window.
var (
	scaleUplink   = simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 500 * time.Microsecond, QueueLen: 256}
	scaleBackbone = simnet.LinkConfig{Rate: 1 * simnet.Gbps, Delay: 10 * time.Millisecond, QueueLen: 1024}
)

// Payload sizes of one virtual-station exchange.
const (
	scaleReqBytes  = 256
	scaleRespBytes = 1024
)

// ScaleConfig sizes a scale world. Zero fields take defaults.
type ScaleConfig struct {
	Seed            int64
	Gateways        int // clusters, one shard each (default 4)
	CellsPerGateway int // aggregator nodes per cluster (default 2)
	StationsPerCell int // virtual stations per cell (default 50, < 64000)
	// RemotePerMille of each cell's stations target the next cluster's
	// host instead of the local one (default 200).
	RemotePerMille int
	ThinkMean      time.Duration // default 2s
	Timeout        time.Duration // default 10s
	Duration       time.Duration // virtual horizon (default 30s)
	Workers        int           // worker lanes for Run (default 1)
}

func (c *ScaleConfig) defaults() {
	if c.Gateways <= 0 {
		c.Gateways = 4
	}
	if c.CellsPerGateway <= 0 {
		c.CellsPerGateway = 2
	}
	if c.StationsPerCell <= 0 {
		c.StationsPerCell = 50
	}
	if c.RemotePerMille < 0 || c.RemotePerMille > 1000 {
		c.RemotePerMille = 200
	} else if c.RemotePerMille == 0 {
		c.RemotePerMille = 200
	}
	if c.ThinkMean <= 0 {
		c.ThinkMean = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
}

// ScaleWorld is a built scale topology, ready to run.
type ScaleWorld struct {
	Cfg   ScaleConfig
	World *simnet.Sharded
	Hosts []*simnet.Node
	Echos []*workload.Echo
	Cells [][]*simnet.Node
	Flows [][]*workload.Flows
}

// BuildScale builds the world: cluster c (its host and cells) on shard
// c, Connect for the intra-cluster uplinks and Cross for the backbone
// ring between clusters.
func BuildScale(cfg ScaleConfig) (*ScaleWorld, error) {
	cfg.defaults()
	G, C, S := cfg.Gateways, cfg.CellsPerGateway, cfg.StationsPerCell
	if S > 64000 {
		return nil, fmt.Errorf("experiments: %d stations per cell overflow the cell's port space", S)
	}

	hostKey := func(c int) string { return fmt.Sprintf("host%d", c) }
	cellKey := func(c, j int) string { return fmt.Sprintf("cell%d.%d", c, j) }

	w := simnet.NewSharded(cfg.Seed, G)
	sw := &ScaleWorld{Cfg: cfg, World: w}

	// Nodes, in deterministic global order, each on its cluster's shard.
	sw.Hosts = make([]*simnet.Node, G)
	sw.Cells = make([][]*simnet.Node, G)
	for c := 0; c < G; c++ {
		host := w.Shard(c).NewNode(hostKey(c))
		host.Forwarding = true
		sw.Hosts[c] = host
		sw.Cells[c] = make([]*simnet.Node, C)
		for j := 0; j < C; j++ {
			sw.Cells[c][j] = w.Shard(c).NewNode(cellKey(c, j))
		}
	}

	// Uplinks, inside each cluster's shard.
	for c := 0; c < G; c++ {
		for j := 0; j < C; j++ {
			up := scaleUplink
			up.Name = fmt.Sprintf("up-%d-%d", c, j)
			l := simnet.Connect(sw.Cells[c][j], sw.Hosts[c], up)
			sw.Cells[c][j].SetDefaultRoute(l.IfaceA())
			sw.Hosts[c].SetRoute(sw.Cells[c][j].ID, l.IfaceB())
		}
	}

	ifaceOf, err := crossRing(w, sw.Hosts, scaleBackbone, "bb-%d-%d")
	if err != nil {
		return nil, err
	}

	// Remote routing: cluster c's stations only ever target cluster
	// (c+1)%G, so host c routes to the next host, and the next host
	// routes replies back to cluster c's cells.
	if G > 1 {
		for c := 0; c < G; c++ {
			next := (c + 1) % G
			sw.Hosts[c].SetRoute(sw.Hosts[next].ID, ifaceOf[c][next])
			for j := 0; j < C; j++ {
				sw.Hosts[next].SetRoute(sw.Cells[c][j].ID, ifaceOf[next][c])
			}
		}
	}

	// Services and populations.
	sw.Echos = make([]*workload.Echo, G)
	sw.Flows = make([][]*workload.Flows, G)
	for c := 0; c < G; c++ {
		e, err := workload.ServeEcho(sw.Hosts[c], hostKey(c), scaleRespBytes)
		if err != nil {
			return nil, fmt.Errorf("experiments: echo %d: %w", c, err)
		}
		sw.Echos[c] = e
		sw.Flows[c] = make([]*workload.Flows, C)
		next := (c + 1) % G
		local := simnet.Addr{Node: sw.Hosts[c].ID, Port: workload.EchoPort}
		remote := simnet.Addr{Node: sw.Hosts[next].ID, Port: workload.EchoPort}
		nRemote := S * cfg.RemotePerMille / 1000
		if G == 1 {
			nRemote = 0
		}
		for j := 0; j < C; j++ {
			f, err := workload.NewFlows(sw.Cells[c][j], cellKey(c, j), workload.FlowConfig{
				Stations:  S,
				FirstPort: 1000,
				Target: func(i int) simnet.Addr {
					if i < nRemote {
						return remote
					}
					return local
				},
				ThinkMean: cfg.ThinkMean,
				ReqBytes:  scaleReqBytes,
				Timeout:   cfg.Timeout,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: flows %d.%d: %w", c, j, err)
			}
			sw.Flows[c][j] = f
		}
	}
	return sw, nil
}

// crossRing joins the cluster hosts, one per shard, with cross-shard
// backbone links: a chain for two clusters, a ring for three or more,
// none for one. Each link is named by nameFmt over its two cluster
// indices. ifaceOf[c][m] is host c's interface toward neighbour m.
func crossRing(w *simnet.Sharded, hosts []*simnet.Node, bb simnet.LinkConfig, nameFmt string) ([]map[int]*simnet.Iface, error) {
	G := len(hosts)
	ifaceOf := make([]map[int]*simnet.Iface, G)
	for c := range ifaceOf {
		ifaceOf[c] = make(map[int]*simnet.Iface)
	}
	links := G
	if G < 3 {
		links = G - 1
	}
	for a := 0; a < links; a++ {
		b := (a + 1) % G
		lcfg := bb
		lcfg.Name = fmt.Sprintf(nameFmt, a, b)
		l, err := w.Cross(hosts[a], hosts[b], lcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: backbone %s: %w", lcfg.Name, err)
		}
		ifaceOf[a][b], ifaceOf[b][a] = l.IfaceA(), l.IfaceB()
	}
	return ifaceOf, nil
}

// Stations returns the total virtual-station population.
func (sw *ScaleWorld) Stations() int {
	return sw.Cfg.Gateways * sw.Cfg.CellsPerGateway * sw.Cfg.StationsPerCell
}

// Run executes the configured horizon on cfg.Workers lanes and reports.
func (sw *ScaleWorld) Run() (*ScaleReport, error) {
	if err := sw.World.RunFor(sw.Cfg.Duration, sw.Cfg.Workers); err != nil {
		return nil, err
	}
	return sw.Report(), nil
}

// Report summarizes the world's state so far.
func (sw *ScaleWorld) Report() *ScaleReport {
	r := &ScaleReport{
		Stations: sw.Stations(),
		Shards:   sw.World.NumShards(),
		Executed: sw.World.Executed(),
		Clusters: make([]ScaleCluster, sw.Cfg.Gateways),
	}
	r.Cascades, r.OverflowMigrations = sw.World.WheelStats()
	for c := range r.Clusters {
		cl := &r.Clusters[c]
		cl.Served = sw.Echos[c].Served
		for _, f := range sw.Flows[c] {
			cl.Ops += f.Ops
			cl.Timeouts += f.Timeouts
		}
		r.Ops += cl.Ops
		r.Timeouts += cl.Timeouts
	}
	return r
}

// Digest is the byte-comparable fingerprint of a run: merged metrics,
// executed-event count and virtual clock. Two runs of the same build at
// different worker counts must produce identical digests.
func (sw *ScaleWorld) Digest() string {
	return fmt.Sprintf("%snow=%v executed=%d pending=%d\n",
		sw.World.Snapshot().String(), sw.World.Now(), sw.World.Executed(), sw.World.Pending())
}

// ScaleCluster is one cluster's totals.
type ScaleCluster struct {
	Ops      uint64
	Timeouts uint64
	Served   uint64
}

// ScaleReport is a deterministic run summary (virtual quantities only —
// wall-clock never appears here, so output is reproducible).
type ScaleReport struct {
	Stations int
	Shards   int
	Executed uint64
	Ops      uint64
	Timeouts uint64
	// Scheduler timing-wheel traffic summed over shards: higher-level
	// slot cascades and overflow-heap migrations (deterministic and
	// worker-lane-invariant, like Executed).
	Cascades           uint64
	OverflowMigrations uint64
	Clusters           []ScaleCluster
}

// Scale is the registry experiment: a modest population demonstrating
// the sharded engine end to end, with per-cluster op totals.
func Scale(seed int64, opts Options) *Result {
	cfg := ScaleConfig{
		Seed:            seed,
		Gateways:        4,
		CellsPerGateway: 2,
		StationsPerCell: 50,
		ThinkMean:       500 * time.Millisecond,
		Duration:        10 * time.Second,
		Workers:         opts.Shards,
	}
	r := newResult("scale", "sharded scale: virtual-station flows across gateway clusters",
		"cluster", "stations", "ops", "timeouts", "served")
	sw, err := BuildScale(cfg)
	if err != nil {
		r.Note("build failed: %v", err)
		return r
	}
	rep, err := sw.Run()
	if err != nil {
		r.Note("run failed: %v", err)
		return r
	}
	perCluster := cfg.CellsPerGateway * cfg.StationsPerCell
	for c, cl := range rep.Clusters {
		r.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", perCluster),
			fmt.Sprintf("%d", cl.Ops), fmt.Sprintf("%d", cl.Timeouts), fmt.Sprintf("%d", cl.Served))
		r.Set(fmt.Sprintf("cluster%d/ops", c), float64(cl.Ops))
	}
	r.Set("ops", float64(rep.Ops))
	r.Set("timeouts", float64(rep.Timeouts))
	r.Set("executed", float64(rep.Executed))
	r.Set("wheel_cascades", float64(rep.Cascades))
	r.Set("wheel_overflow_migrations", float64(rep.OverflowMigrations))
	r.Note("stations=%d shards=%d lookahead=%v ops=%d timeouts=%d wheel_cascades=%d",
		rep.Stations, rep.Shards, sw.World.Lookahead(), rep.Ops, rep.Timeouts, rep.Cascades)
	r.AttachMetrics("scale", sw.World.Snapshot())
	return r
}
