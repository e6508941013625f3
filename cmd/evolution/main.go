// Command evolution regenerates the paper's two exhibits: Figure 1, the
// timeline of stream processing generations annotated with the package in
// this repository implementing each element, and Table 1, the requirement ×
// application matrix with the implementation behind every row.
package main

import "fmt"

var timeline = []struct {
	era      string
	systems  string
	concepts []string
}{
	{
		era:     "1st gen '92-'03 (from DBs to DSMSs): Tapestry, NiagaraCQ, TelegraphCQ, STREAM, Aurora/Borealis",
		systems: "prototypes from the database community",
		concepts: []string{
			"continuous queries ............ internal/cql (CQL: windows, ISTREAM/DSTREAM/RSTREAM)",
			"synopses / bounded memory ..... internal/synopsis (CMS, Bloom, HLL, reservoir, exp. histograms)",
			"sliding windows ............... internal/window (assigners + naive/panes/two-stacks aggregation)",
			"slack / best-effort order ..... internal/eventtime (SlackBuffer)",
			"load shedding ................. internal/load (random + semantic shedders, when/how-many controller)",
		},
	},
	{
		era:     "commercial wave '04-'10: IBM System S, Esper, Oracle CQL/CEP, TIBCO",
		systems: "scale-up engines over ordered streams",
		concepts: []string{
			"complex event processing ...... internal/cep (NFA: strict/relaxed contiguity, Kleene, within)",
			"heartbeats (STREAM) ........... internal/eventtime (HeartbeatGenerator)",
			"punctuations .................. internal/eventtime (Punctuation, PunctuationTracker)",
		},
	},
	{
		era:     "2nd gen '10-'18 (scalable data streaming): Storm, Spark Streaming, Millwheel/Dataflow, Flink, Samza, Kafka Streams, Naiad",
		systems: "distributed shared-nothing dataflows on commodity clusters",
		concepts: []string{
			"out-of-order processing ....... internal/eventtime (watermarks) + internal/core (alignment)",
			"state management .............. internal/state (memory / LSM / changelog backends, key groups)",
			"processing guarantees ......... internal/core (aligned barriers, exactly-once restore)",
			"scalability ................... internal/core (parallel operator instances, hash partitioning)",
			"reconfiguration ............... core.RescaleCheckpoint (key-group migration)",
			"backpressure & elasticity ..... internal/core (bounded channels) + internal/load (DS2-style scaling)",
			"lineage / micro-batch ......... internal/lineage (discretized streams baseline)",
			"frontiers (Naiad) ............. internal/eventtime (Frontier, pointstamps)",
			"stream SQL .................... internal/cql",
		},
	},
	{
		era:     "3rd gen '18- (beyond analytics): Stateful Functions, Ray, Arcon, Neptune, Ambrosia, S-Store",
		systems: "event-driven applications, cloud services, ML on streams",
		concepts: []string{
			"actors / stateful functions ... internal/statefun (virtual actors, request/response)",
			"transactions .................. internal/txn (serializable store + saga workflows)",
			"model serving & training ...... internal/ml (online SGD, versioned registry, hot swap)",
			"streaming graphs .............. internal/graphstream (incremental CC / SSSP, random walks)",
			"loops & cycles ................ internal/iterate (async feedback, BSP supersteps)",
			"queryable state ............... internal/queryable + internal/serve (per-instance shards, get/keys over TCP)",
			"state versioning .............. internal/state (SchemaRegistry, VersionedValue)",
			"hardware acceleration ......... internal/window (vectorized kernels, E10)",
		},
	},
}

// table1 is Table 1 ("Requirements for new applications"). The per-cell
// checks are reconstructed from the §4.2 prose (the tutorial's table is
// rendered ambiguously in the source text); the row totals — 8 checks for
// Cloud Apps, 8 for ML, 4 for Graph — match the paper.
var table1 = []struct {
	name          string
	cloud, ml, gr bool
	impl          string
}{
	{"Programming Models", true, true, true, "core.Builder fluent API; statefun actors; cql SQL; iterate BSP"},
	{"Transactions", true, false, false, "txn.Store (serializable 2PL), txn.Workflow (compensation)"},
	{"Advanced State Backends", true, true, true, "state: memory / LSM (internal/lsm) / changelog; TTL"},
	{"Loops & Cycles", true, true, true, "iterate.AsyncLoop (async), iterate.Pregel (bulk-synchronous)"},
	{"Elasticity & Reconfiguration", true, true, false, "core.RescaleCheckpoint + load.ScalingPolicy (DS2-style)"},
	{"Dynamic Topologies", true, true, false, "statefun: addresses spawn on first message (virtual actors)"},
	{"Shared Mutable State", false, true, true, "txn.Store shared across operators; ml.Registry; graphstream"},
	{"Queryable State", true, true, false, "queryable.PublishOperator's per-instance shards, read by serve.Server's get/keys over TCP"},
	{"State Versioning", true, true, false, "state.SchemaRegistry + VersionedValue; ml.Registry versions"},
	{"Hardware Acceleration", false, false, false, "window.BatchTumbling vectorized kernels (CPU stand-in, E10)"},
}

// table1Totals counts the checks per application column.
func table1Totals() (cloud, ml, graph int) {
	for _, r := range table1 {
		if r.cloud {
			cloud++
		}
		if r.ml {
			ml++
		}
		if r.gr {
			graph++
		}
	}
	return cloud, ml, graph
}

func main() {
	fmt.Println("Figure 1 — the evolution of stream processing systems, mapped to this repository")
	fmt.Println()
	for _, t := range timeline {
		fmt.Println(t.era)
		for _, c := range t.concepts {
			fmt.Println("    " + c)
		}
		fmt.Println()
	}

	mark := func(b bool) string {
		if b {
			return "Y"
		}
		return "."
	}
	fmt.Println("Table 1 — requirements for new applications, mapped to implementations")
	fmt.Println()
	fmt.Printf("%-30s %-6s %-4s %-6s %s\n", "requirement", "cloud", "ml", "graph", "implemented by")
	for _, r := range table1 {
		fmt.Printf("%-30s %-6s %-4s %-6s %s\n", r.name, mark(r.cloud), mark(r.ml), mark(r.gr), r.impl)
	}
	cloud, ml, graph := table1Totals()
	fmt.Printf("checks per application: cloud=%d ml=%d graph=%d (paper row totals: 8 / 8 / 4)\n", cloud, ml, graph)
	fmt.Println("every requirement row has a working implementation regardless of which cells the paper checks;")
	fmt.Println("hardware acceleration is simulated by CPU-vectorized kernels (DESIGN.md §2)")
}
