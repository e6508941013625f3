// Command serve demonstrates the stream SQL front door end to end: it runs a
// network-flow pipeline whose source is tapped into a serve.Server, connects
// several TCP clients, registers continuous CQL subscriptions (a windowed
// per-protocol aggregate fanned out to multiple clients, plus a WHERE-filtered
// elephant-flow feed), point-queries the job's queryable state over the same
// connections while the job is live, and reports what each subscriber saw —
// including proof that fan-out delivered identical delta streams.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/gen"
	"repro/internal/queryable"
	"repro/internal/serve"
)

const (
	aggQuery      = "ISTREAM (SELECT proto, COUNT(*) AS flows, SUM(bytes) AS bytes FROM flows [RANGE 1000 SLIDE 1000] GROUP BY proto)"
	elephantQuery = "ISTREAM (SELECT src, bytes FROM flows [NOW] WHERE bytes > 60000)"
)

// subReport is what one subscriber's drain goroutine observed.
type subReport struct {
	client     int
	id         string
	deltas     int
	watermarks int
	shed       int64    // records the server dropped for this subscriber
	rows       []string // JSON-ish render of each delta, for fan-out equality
	err        string
}

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "front-door listen address (port 0 picks a free one)")
	n := flag.Int("n", 20_000, "number of generated network flows")
	clients := flag.Int("clients", 3, "number of TCP subscriber clients (min 2)")
	flag.Parse()
	if *clients < 2 {
		*clients = 2
	}

	// Front door first: streams must be registered before the pipeline is
	// built so the tap can be wired into the topology.
	svc := queryable.NewService()
	srv := serve.NewServer(serve.Options{Service: svc})
	tap := srv.RegisterStream("flows", func(e core.Event) (cql.Row, bool) {
		f, ok := e.Value.(gen.NetFlow)
		if !ok {
			return nil, false
		}
		return cql.Row{"src": f.SrcIP, "proto": f.Protocol, "bytes": float64(f.Bytes)}, true
	})
	if err := srv.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("stream SQL front door on %s\n", srv.Addr())

	// Pipeline: flow source -> tap (serving) -> keyed per-source byte
	// counters published as queryable state.
	b := core.NewBuilder(core.Config{Name: "serve-demo", WatermarkInterval: 64})
	src := b.Source("flows", gen.SourceFactory(gen.FlowSpec(*n, 500, 42)),
		core.WithBoundedDisorder(0), core.WithParallelism(2))
	keyed := src.TapInto("tap", tap).
		KeyBy(func(e core.Event) string { return e.Value.(gen.NetFlow).SrcIP })
	queryable.PublishOperator(keyed, "bytes-by-src", svc, "src_bytes", "bytes",
		func(e core.Event, ctx core.Context) {
			st := ctx.State().Value("bytes")
			cur := int64(0)
			if v, ok := st.Get(); ok {
				cur = v.(int64)
			}
			st.Set(cur + e.Value.(gen.NetFlow).Bytes)
		}).Sink("qs-sink", core.NewCollectSink().Factory())
	job, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Subscribe before the job starts so every delta is delivered: client 0
	// gets the windowed aggregate, client 1 the filtered elephant feed, and
	// every further client repeats the aggregate — those streams must come
	// out identical (fan-out correctness observed from the outside). The
	// queues hold the whole run, so no pump that the scheduler starves can
	// shed: a subscriber that sheds is told, and rightly sees a different
	// stream.
	reports := make([]*subReport, *clients)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		c, err := serve.Dial(srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		id, query := "per-proto-1s", aggQuery
		if i == 1 {
			id, query = "elephants", elephantQuery
		}
		sub, err := c.Subscribe(id, query, serve.SubscribeOptions{Buffer: *n})
		if err != nil {
			log.Fatal(err)
		}
		rep := &subReport{client: i, id: id}
		reports[i] = rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range sub.Frames {
				switch f.Op {
				case "delta":
					rep.deltas++
					rep.rows = append(rep.rows, fmt.Sprintf("%s@%d:%v", f.Kind, f.Ts, f.Row))
				case "watermark":
					rep.watermarks++
				case "eos":
					rep.shed = f.Shed
				case "error":
					rep.err = fmt.Sprintf("%s: %s", f.Code, f.Err)
				}
			}
		}()
	}

	// A separate client point-queries live state while the job runs — the
	// same front door serves continuous queries and key lookups.
	pq, err := serve.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer pq.Close()
	stop := make(chan struct{})
	liveGets := 0
	var pqWG sync.WaitGroup
	pqWG.Add(1)
	go func() {
		defer pqWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(2 * time.Millisecond)
			ks, err := pq.Keys("src_bytes")
			if err != nil || len(ks) == 0 {
				continue
			}
			if _, found, err := pq.Get("src_bytes", ks[0]); err == nil && found {
				liveGets++
			}
		}
	}()

	if err := job.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	close(stop)
	pqWG.Wait()
	wg.Wait() // each subscription ends with an EOS frame when the job drains

	fmt.Println("stream SQL front door demo:")
	fmt.Printf("  flows processed      : %d\n", *n)
	fmt.Printf("  subscriber clients   : %d (+1 point-query client)\n", *clients)
	for _, rep := range reports {
		status := "eos"
		if rep.err != "" {
			status = rep.err
		}
		fmt.Printf("  client %d %-12s : %d deltas, %d watermarks, %d shed, %s\n",
			rep.client, rep.id, rep.deltas, rep.watermarks, rep.shed, status)
	}

	// Fan-out proof: every aggregate subscriber saw the same delta stream.
	identical := true
	for _, rep := range reports[2:] {
		if fmt.Sprint(rep.rows) != fmt.Sprint(reports[0].rows) {
			identical = false
		}
	}
	fmt.Printf("  fan-out identical    : %v (aggregate stream across %d subscribers)\n",
		identical, *clients-1)
	fmt.Printf("  live point queries   : %d while the job ran\n", liveGets)

	// Final state through the same TCP door: top sources by exact bytes.
	streams, tables, err := pq.Describe()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  served streams/tables: %v / %v\n", streams, tables)
	keys, err := pq.Keys("src_bytes")
	if err != nil {
		log.Fatal(err)
	}
	type talker struct {
		src   string
		bytes int64
	}
	var talkers []talker
	for _, k := range keys {
		v, found, err := pq.Get("src_bytes", k)
		if err != nil || !found {
			continue
		}
		// JSON round-trip delivers numbers as float64.
		talkers = append(talkers, talker{src: k, bytes: int64(v.(float64))})
	}
	sort.Slice(talkers, func(i, j int) bool { return talkers[i].bytes > talkers[j].bytes })
	fmt.Println("  top sources by exact bytes (served over TCP):")
	for i, tk := range talkers {
		if i == 5 {
			break
		}
		fmt.Printf("    %-8s %d\n", tk.src, tk.bytes)
	}
}
