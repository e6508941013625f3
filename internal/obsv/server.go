package obsv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
)

// JobInfo is the /jobs view of one job: the logical topology plus live
// per-node and per-instance runtime signals. The engine fills it via
// core.Job.Describe; obsv owns the shape so the server stays decoupled from
// the engine.
type JobInfo struct {
	Name           string `json:"name"`
	LastCheckpoint int64  `json:"last_checkpoint"`
	// AbortedCheckpoints counts checkpoints abandoned after a snapshot
	// failure (the job kept running; a later checkpoint subsumed them).
	AbortedCheckpoints int64 `json:"aborted_checkpoints"`
	// SnapshotSaveFailures counts individual failed snapshot attempts,
	// post-retry.
	SnapshotSaveFailures int64 `json:"snapshot_save_failures"`
	// Restarts counts supervised restarts of this job's lineage (filled by
	// ha.Supervisor's Describe; 0 when the job runs unsupervised).
	Restarts int64 `json:"restarts"`
	// Rescales counts live reconfigurations of this job's lineage (filled by
	// ha.Supervisor's Describe; 0 for a fixed-parallelism job).
	Rescales int64 `json:"rescales,omitempty"`
	// LastRescaleDowntimeMs is the output gap of the most recent rescale:
	// savepoint trigger → first output of the re-parallelised incarnation.
	LastRescaleDowntimeMs int64 `json:"last_rescale_downtime_ms,omitempty"`
	// LastRescaleDurationMs is the offline span of the most recent rescale:
	// old incarnation exited → rescaled checkpoint written and new job
	// rebuilt/restored.
	LastRescaleDurationMs int64      `json:"last_rescale_duration_ms,omitempty"`
	Nodes                 []NodeInfo `json:"nodes"`
	Edges                 []EdgeInfo `json:"edges"`
	// Subscribers lists active serving-layer subscriptions fanned out from
	// this job's tapped streams (filled by the serve front door; empty for
	// jobs without one).
	Subscribers []SubscriberInfo `json:"subscribers,omitempty"`
}

// SubscriberInfo is one serving-layer subscription's live counters: what was
// delivered into its continuous query, what its overflow policy shed, and how
// far its bounded queue has fallen behind the job.
type SubscriberInfo struct {
	ID         string `json:"id"`
	Query      string `json:"query,omitempty"`
	Policy     string `json:"policy"`
	Delivered  int64  `json:"delivered"`
	Shed       int64  `json:"shed,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
}

// NodeInfo describes one logical graph vertex and its aggregate counters.
type NodeInfo struct {
	Name        string         `json:"name"`
	Parallelism int            `json:"parallelism"`
	Source      bool           `json:"source,omitempty"`
	In          int64          `json:"in"`
	Out         int64          `json:"out"`
	Instances   []InstanceInfo `json:"instances,omitempty"`
}

// InstanceInfo carries per-instance live signals (zero values when the job
// is not instrumented or not yet running).
type InstanceInfo struct {
	ID             string `json:"id"`
	QueueDepth     int    `json:"queue_depth"`
	QueueCapacity  int    `json:"queue_capacity"`
	Watermark      int64  `json:"watermark"`
	WatermarkLagMs int64  `json:"watermark_lag_ms"`
	// TimersFired and TimerNs count the event-time timers the instance
	// fired and the time it spent firing them (part of its busy time).
	TimersFired int64 `json:"timers_fired,omitempty"`
	TimerNs     int64 `json:"timer_ns,omitempty"`
}

// EdgeInfo describes one logical graph connection.
type EdgeInfo struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Partition string `json:"partition"`
}

// Server is the HTTP introspection endpoint: /metrics (Prometheus text
// format), /jobs (topology + live counters as JSON) and /traces (recent
// spans as JSON).
type Server struct {
	registry *metrics.Registry
	tracer   *Tracer
	jobs     func() []JobInfo

	mu   sync.Mutex
	ln   net.Listener
	http *http.Server
	wg   sync.WaitGroup
}

// NewServer builds a server over the given sources. tracer may be nil
// (/traces serves an empty list) and jobs may be nil (/jobs serves an empty
// list).
func NewServer(reg *metrics.Registry, tracer *Tracer, jobs func() []JobInfo) *Server {
	return &Server{registry: reg, tracer: tracer, jobs: jobs}
}

// Handler returns the introspection routes; usable standalone for embedding
// into an existing mux or httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, s.registry)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, _ *http.Request) {
		jobs := []JobInfo{}
		if s.jobs != nil {
			jobs = s.jobs()
		}
		writeJSON(w, jobs)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.tracer.WriteJSON(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "observability endpoints: /metrics /jobs /traces\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Start listens on addr (host:port; port 0 picks a free port) and serves in
// a background goroutine until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obsv: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.ln = ln
	s.http = srv
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Serve always returns a non-nil error; after Close it is
		// http.ErrServerClosed, which is the expected shutdown path.
		_ = srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address (useful with port 0), or "" before
// Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers and joins the serve
// goroutine, so a returned Close guarantees the port is released and nothing
// from this server runs afterwards (tests reusing addresses relied on luck
// before).
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Close()
	s.wg.Wait()
	return err
}
