package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/queryable"
)

func testEvents(n int) []core.Event {
	evs := make([]core.Event, n)
	for i := range evs {
		evs[i] = core.Event{Key: fmt.Sprintf("k%d", i%3), Timestamp: int64(i * 10), Value: int64(i)}
	}
	return evs
}

func extractKV(e core.Event) (cql.Row, bool) {
	return cql.Row{"k": e.Key, "v": e.Value.(int64)}, true
}

// buildTapped builds the standard test pipeline (slice source -> optional
// tap -> collect sink) without running it.
func buildTapped(t *testing.T, n int, tap core.Tap) (*core.Job, *core.CollectSink) {
	t.Helper()
	sink := core.NewCollectSink()
	b := core.NewBuilder(core.Config{Name: "serve-test", WatermarkInterval: 16})
	s := b.Source("src", core.NewSliceSourceFactory(testEvents(n)), core.WithBoundedDisorder(0))
	if tap != nil {
		s = s.TapInto("tap", tap)
	}
	s.Sink("out", sink.Factory())
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return job, sink
}

func runJob(t *testing.T, job *core.Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Run(ctx); err != nil {
		t.Fatal(err)
	}
}

// pipeSubscribe subscribes over an in-memory connection and returns the
// client's end once the server has acknowledged. Every server write blocks
// until the test reads it, which makes the subscriber exactly as slow as the
// test wants; done closes when the server has let go of the connection.
func pipeSubscribe(t *testing.T, srv *Server, req *Request) (client net.Conn, done chan struct{}) {
	t.Helper()
	client, server := net.Pipe()
	done = make(chan struct{})
	go func() {
		srv.handle(server)
		close(done)
	}()
	if err := writeFrame(client, req); err != nil {
		t.Fatal(err)
	}
	var ack Frame
	if err := readFrame(client, &ack); err != nil || ack.Op != "subscribe" {
		t.Fatalf("subscribe ack: %+v %v", ack, err)
	}
	return client, done
}

// collect drains a subscription until its channel closes, splitting deltas
// from the terminal frame.
func collect(sub *ClientSub) (deltas []*Frame, terminal *Frame) {
	for f := range sub.Frames {
		switch f.Op {
		case "delta":
			deltas = append(deltas, f)
		case "eos", "error":
			terminal = f
		}
	}
	return deltas, terminal
}

// The front-door happy path: N TCP clients subscribe the same continuous
// query over a running job and every one of them sees the identical delta
// stream, ending in a clean eos on job drain.
func TestServeMultipleSubscribersIdenticalDeltas(t *testing.T) {
	srv := NewServer(Options{})
	tap := srv.RegisterStream("s", extractKV)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	job, _ := buildTapped(t, 120, tap)

	const nClients = 3
	var clients [nClients]*Client
	var subs [nClients]*ClientSub
	for i := range clients {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sub, err := c.Subscribe("q", "ISTREAM (SELECT k, v FROM s [NOW])", SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i], subs[i] = c, sub
	}

	runJob(t, job)

	var first []*Frame
	for i, sub := range subs {
		deltas, terminal := collect(sub)
		if terminal == nil || terminal.Op != "eos" {
			t.Fatalf("client %d: no eos terminal, got %+v", i, terminal)
		}
		if terminal.Shed != 0 {
			t.Fatalf("client %d shed %d records with no lag", i, terminal.Shed)
		}
		if len(deltas) != 120 {
			t.Fatalf("client %d got %d deltas, want 120", i, len(deltas))
		}
		for j, d := range deltas {
			if d.Kind != "insert" || d.Ts != int64(j*10) ||
				d.Row["v"].(float64) != float64(j) || d.Row["k"].(string) != fmt.Sprintf("k%d", j%3) {
				t.Fatalf("client %d delta %d = %+v", i, j, d)
			}
		}
		if i == 0 {
			first = deltas
			continue
		}
		for j := range deltas {
			a, _ := json.Marshal(first[j])
			b, _ := json.Marshal(deltas[j])
			if string(a) != string(b) {
				t.Fatalf("client %d delta %d diverged: %s vs %s", i, j, b, a)
			}
		}
	}
}

// A stalled subscriber sheds on its own bounded queue — with counters to
// prove it — while the job's sink output stays byte-identical to a run with
// no serving layer at all.
func TestServeStalledSubscriberDoesNotPerturbJob(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := NewServer(Options{Registry: reg})
	tap := srv.RegisterStream("s", extractKV)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Healthy TCP subscriber with ample buffer.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	healthy, err := c.Subscribe("ok", "ISTREAM (SELECT k, v FROM s [NOW])", SubscribeOptions{Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Stalled in-process subscriber: tiny queue, never drained.
	stalled, err := srv.Hub().Subscribe("stalled", "ISTREAM (SELECT k, v FROM s [NOW])", 8, load.DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	// Lagging subscriber: a connection nobody reads while the job runs. A
	// pipe has no buffer, so its pump blocks in its first write and its
	// 8-slot queue sheds behind it.
	lagging, lagDone := pipeSubscribe(t, srv, &Request{Seq: 1, Op: "subscribe", ID: "lag",
		Query: "ISTREAM (SELECT k, v FROM s [NOW])", Buffer: 8})

	job, sink := buildTapped(t, 500, tap)
	runJob(t, job)

	// The lagging subscriber is told it is losing records while it is still
	// subscribed: the count rides on its watermark frames, and eos repeats
	// the total.
	var toldShed int64
	for {
		var f Frame
		if err := readFrame(lagging, &f); err != nil {
			t.Fatalf("lagging subscriber: %v", err)
		}
		if f.Op == "watermark" && f.Shed != 0 {
			if f.Shed <= toldShed {
				t.Fatalf("watermark repeats shed count %d after %d", f.Shed, toldShed)
			}
			toldShed = f.Shed
		}
		if f.Op == "eos" {
			if toldShed == 0 || toldShed > f.Shed || f.Shed < 500-16 {
				t.Fatalf("lagging subscriber was told of %d shed before eos reported %d", toldShed, f.Shed)
			}
			break
		}
	}
	lagging.Close()
	<-lagDone

	deltas, terminal := collect(healthy)
	if len(deltas) != 500 || terminal == nil || terminal.Op != "eos" {
		t.Fatalf("healthy subscriber: %d deltas, terminal %+v", len(deltas), terminal)
	}
	if got := stalled.Shed(); got != 500-8 {
		t.Fatalf("stalled subscriber shed %d, want %d (all but its 8-slot queue)", got, 500-8)
	}
	if got := reg.Counter("serve.sub.stalled.shed").Value(); got != 500-8 {
		t.Fatalf("shed counter = %d", got)
	}
	infos := srv.Subscribers()
	if len(infos) != 1 || infos[0].ID != "stalled" || infos[0].Shed != 500-8 || infos[0].QueueDepth != 8 {
		t.Fatalf("Subscribers() = %+v", infos)
	}
	// The /jobs integration: subscriber info rides on JobInfo and the field
	// disappears entirely for jobs without a serving layer.
	withSubs, _ := json.Marshal(obsv.JobInfo{Name: "j", Subscribers: infos})
	if !strings.Contains(string(withSubs), `"subscribers"`) || !strings.Contains(string(withSubs), `"stalled"`) {
		t.Fatalf("JobInfo JSON missing subscribers: %s", withSubs)
	}
	if plain, _ := json.Marshal(obsv.JobInfo{Name: "j"}); strings.Contains(string(plain), "subscribers") {
		t.Fatalf("empty subscriber list not omitted: %s", plain)
	}

	// Byte-identical pipeline output vs a run with no tap, no server.
	ref, refSink := buildTapped(t, 500, nil)
	runJob(t, ref)
	got, want := sink.SortedByTimestamp(), refSink.SortedByTimestamp()
	if len(got) != len(want) {
		t.Fatalf("served run emitted %d events, unserved %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("served pipeline output diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// Point queries and a live subscription share one connection while the job
// is running and publishing snapshots (run with -race).
func TestServePointQueryDuringLiveUpdates(t *testing.T) {
	svc := queryable.NewService()
	srv := NewServer(Options{Service: svc})
	tap := srv.RegisterStream("s", extractKV)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sink := core.NewCollectSink()
	b := core.NewBuilder(core.Config{Name: "serve-qs", WatermarkInterval: 16})
	s := b.Source("src", core.NewSliceSourceFactory(testEvents(300)), core.WithBoundedDisorder(0)).
		TapInto("tap", tap).
		KeyBy(func(e core.Event) string { return e.Key })
	queryable.PublishOperator(s, "count", svc, "counts", "n", func(e core.Event, ctx core.Context) {
		st := ctx.State().Value("n")
		n := int64(0)
		if v, ok := st.Get(); ok {
			n = v.(int64)
		}
		st.Set(n + 1)
	}).Sink("out", sink.Factory())
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("live", "ISTREAM (SELECT k, v FROM s [NOW])", SubscribeOptions{Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}

	// Drain the subscription concurrently — a reply and a delta share the
	// connection, so a consumer that stops draining its subscription would
	// stall its own point queries behind a full channel.
	type subResult struct {
		deltas   []*Frame
		terminal *Frame
	}
	collected := make(chan subResult, 1)
	go func() {
		d, term := collect(sub)
		collected <- subResult{d, term}
	}()

	done := make(chan struct{})
	go func() { defer close(done); runJob(t, job) }()
	// Hammer point queries over the same connection while deltas stream.
	for i := 0; ; i++ {
		if _, _, err := c.Get("counts", fmt.Sprintf("k%d", i%3)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	result := <-collected
	deltas, terminal := result.deltas, result.terminal
	if len(deltas) != 300 || terminal == nil || terminal.Op != "eos" {
		t.Fatalf("live subscription: %d deltas, terminal %+v", len(deltas), terminal)
	}
	total := 0.0
	for i := 0; i < 3; i++ {
		v, found, err := c.Get("counts", fmt.Sprintf("k%d", i))
		if err != nil || !found {
			t.Fatalf("final get k%d: %v %v", i, found, err)
		}
		total += v.(float64)
	}
	if total != 300 {
		t.Fatalf("final counts sum = %v, want 300", total)
	}
	tables, err := c.Tables()
	if err != nil || len(tables) != 1 || tables[0] != "counts" {
		t.Fatalf("tables: %v %v", tables, err)
	}
	keys, err := c.Keys("counts")
	if err != nil || len(keys) != 3 {
		t.Fatalf("keys: %v %v", keys, err)
	}
	streams, qtables, err := c.Describe()
	if err != nil || len(streams) != 1 || streams[0] != "s" || len(qtables) != 1 {
		t.Fatalf("describe: %v %v %v", streams, qtables, err)
	}
}

// A TCP consumer that stops reading under the disconnect policy gets evicted
// — and the producer (the tap) never blocks while that happens.
func TestServeDisconnectEvictsJammedConsumer(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := NewServer(Options{Registry: reg})
	tap := srv.RegisterStream("s", extractKV)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Raw connection: subscribe, then never read again.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &Request{Seq: 1, Op: "subscribe", ID: "jam",
		Query: "ISTREAM (SELECT k, v FROM s [NOW])", Buffer: 1, Policy: "disconnect"}); err != nil {
		t.Fatal(err)
	}
	var ack Frame
	if err := readFrame(conn, &ack); err != nil || ack.Op != "subscribe" {
		t.Fatalf("subscribe ack: %+v %v", ack, err)
	}

	// Produce until the eviction lands; each OnRecord returns immediately —
	// a blocked producer would time the test out, which IS the failure mode
	// this guards against.
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; ; i++ {
		tap.OnRecord(core.Event{Key: "k", Timestamp: int64(i), Value: int64(i)})
		if i%512 == 0 {
			if len(srv.Subscribers()) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("jammed disconnect-policy subscriber never evicted")
			}
		}
	}
	if got := reg.Counter("serve.sub.c1.jam.shed").Value(); got == 0 {
		t.Fatal("disconnect eviction left shed counter at 0")
	}
	// The tap stays usable for remaining (zero) subscribers and shutdown is
	// clean.
	tap.OnRecord(core.Event{Key: "k", Timestamp: 0, Value: int64(0)})
	tap.OnEOS()
}

func TestServeProtocolAndParamErrors(t *testing.T) {
	srv := NewServer(Options{}) // no queryable service attached
	srv.RegisterStream("s", extractKV)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wantCode := func(err error, code string) {
		t.Helper()
		se, ok := err.(*Error)
		if !ok || se.Code != code {
			t.Fatalf("err = %v, want code %s", err, code)
		}
	}
	_, err = c.Subscribe("a", "SELEKT", SubscribeOptions{})
	wantCode(err, CodeSyntax)
	_, err = c.Subscribe("b", "ISTREAM (SELECT v FROM ghost [NOW])", SubscribeOptions{})
	wantCode(err, CodeUndefinedStream)
	_, err = c.Subscribe("c", "ISTREAM (SELECT v FROM s [NOW])", SubscribeOptions{Policy: "yolo"})
	wantCode(err, CodeInvalidParam)
	if _, err = c.Subscribe("d", "ISTREAM (SELECT v FROM s [NOW])", SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Subscribe("d", "ISTREAM (SELECT v FROM s [NOW])", SubscribeOptions{})
	wantCode(err, CodeDuplicate)
	_, _, err = c.Get("t", "k")
	wantCode(err, CodeUnknownOp) // no service attached
	_, err = c.call(&Request{Op: "bogus"})
	wantCode(err, CodeUnknownOp)
	err = c.Unsubscribe("nope")
	wantCode(err, CodeUndefinedStream)
	if err := c.Unsubscribe("d"); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// A zero seq is a protocol violation: coded frame, then disconnect.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := writeFrame(raw, &Request{Seq: 0, Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := readFrame(raw, &f); err != nil || f.Code != CodeProtocol {
		t.Fatalf("zero-seq response: %+v %v", f, err)
	}
	// Garbage bytes after a length prefix: 08P01 as well.
	raw2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw2.Close()
	if _, err := raw2.Write([]byte{0, 0, 0, 2, '{', 'x'}); err != nil {
		t.Fatal(err)
	}
	if err := readFrame(raw2, &f); err != nil || f.Code != CodeProtocol {
		t.Fatalf("garbage frame response: %+v %v", f, err)
	}
}

// Server Close drains: subscribers get a shutdown signal and their channels
// close; the job-side taps survive.
func TestServeCloseDrainsSubscribers(t *testing.T) {
	srv := NewServer(Options{})
	tap := srv.RegisterStream("s", extractKV)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("q", "ISTREAM (SELECT k, v FROM s [NOW])", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tap.OnRecord(core.Event{Key: "k0", Timestamp: 1, Value: int64(1)})
	if f := <-sub.Frames; f == nil || f.Op != "delta" {
		t.Fatalf("pre-close delta: %+v", f)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for range sub.Frames {
		// drain whatever raced the shutdown; the closed channel ends this
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded against closed server")
	}
	// Taps outlive the front door.
	tap.OnRecord(core.Event{Key: "k0", Timestamp: 2, Value: int64(2)})
	tap.OnEOS()
}

// Subscribing mid-stream then hitting EOS with no records still ends in a
// clean eos frame.
func TestServeSubscribeThenImmediateEOS(t *testing.T) {
	srv := NewServer(Options{})
	tap := srv.RegisterStream("s", extractKV)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("q", "ISTREAM (SELECT k, v FROM s [NOW])", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tap.OnEOS()
	deltas, terminal := collect(sub)
	if len(deltas) != 0 || terminal == nil || terminal.Op != "eos" || terminal.Shed != 0 {
		t.Fatalf("immediate EOS: %d deltas, terminal %+v", len(deltas), terminal)
	}
}

// A continuous query's answer does not depend on how fast its client drains:
// a subscriber the server has to wait for at every write sees its deliveries
// cut at other places and its watermarks coalesced, and still receives the
// same deltas, byte for byte, as one that keeps up.
func TestServePaceSkewedSubscribersIdenticalDeltas(t *testing.T) {
	const n = 1500
	const query = "ISTREAM (SELECT k, COUNT(*) AS n, SUM(v) AS s FROM s [RANGE 200 SLIDE 100] GROUP BY k)"
	srv := NewServer(Options{})
	tap := srv.RegisterStream("s", extractKV)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Queues as long as the stream: neither subscriber can shed.
	fast, err := c.Subscribe("q", query, SubscribeOptions{Buffer: n})
	if err != nil {
		t.Fatal(err)
	}
	slow, slowDone := pipeSubscribe(t, srv, &Request{Seq: 1, Op: "subscribe", ID: "q", Query: query, Buffer: n})

	type result struct {
		deltas     []string
		watermarks int
		shed       int64
	}
	fastc, slowc := make(chan result, 1), make(chan result, 1)
	go func() {
		var r result
		for f := range fast.Frames {
			switch f.Op {
			case "delta":
				b, _ := json.Marshal(f)
				r.deltas = append(r.deltas, string(b))
			case "watermark":
				r.watermarks++
				r.shed += f.Shed
			case "eos":
				r.shed += f.Shed
			}
		}
		fastc <- r
	}()
	go func() {
		var r result
		for {
			var f Frame
			if err := readFrame(slow, &f); err != nil {
				t.Errorf("slow subscriber: %v", err)
				break
			}
			time.Sleep(time.Millisecond)
			if f.Op == "delta" {
				b, _ := json.Marshal(&f)
				r.deltas = append(r.deltas, string(b))
			} else if r.shed += f.Shed; f.Op == "watermark" {
				r.watermarks++
			} else {
				break
			}
		}
		slowc <- r
	}()

	job, _ := buildTapped(t, n, tap)
	runJob(t, job)
	f, s := <-fastc, <-slowc
	slow.Close()
	<-slowDone

	if f.shed != 0 || s.shed != 0 {
		t.Fatalf("shed %d and %d records behind queues that hold the whole stream", f.shed, s.shed)
	}
	// Timestamps run from 0 to 10(n-1): boundary 0 holds one tuple, and each
	// later boundary that a tuple beyond it completes reports three keys.
	if want := 1 + 3*(10*(n-1)/100); len(f.deltas) != want {
		t.Fatalf("fast subscriber got %d deltas, want %d", len(f.deltas), want)
	}
	if len(s.deltas) != len(f.deltas) {
		t.Fatalf("slow subscriber got %d deltas, fast %d (watermarks %d and %d)", len(s.deltas), len(f.deltas), s.watermarks, f.watermarks)
	}
	for i := range f.deltas {
		if f.deltas[i] != s.deltas[i] {
			t.Fatalf("delta %d diverged with pace:\n fast %s\n slow %s", i, f.deltas[i], s.deltas[i])
		}
	}
	if s.watermarks >= f.watermarks {
		t.Logf("slow subscriber saw %d watermark frames, fast %d: the paces did not differ this run", s.watermarks, f.watermarks)
	}
}
