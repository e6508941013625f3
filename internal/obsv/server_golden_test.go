package obsv

import (
	"io"
	"net/http/httptest"
	"testing"

	"repro/internal/metrics"
)

// These are handler-level golden tests: they pin the exact bytes /metrics and
// /jobs serve for a fixed input, so an accidental change to the exposition
// format (field rename, reordering, dropped quantile line) fails loudly.

func golden(t *testing.T, srv *Server, path string) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}

func TestMetricsEndpointGolden(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("node.win.in").Add(3)
	r.Gauge("node.win.0.queue_depth").Set(2)
	h := r.Histogram("node.win.latency_ns")
	h.Observe(1)
	h.Observe(100)
	h.Observe(100)

	want := `# TYPE node_win_in counter
node_win_in 3
# TYPE node_win_0_queue_depth gauge
node_win_0_queue_depth 2
# TYPE node_win_latency_ns histogram
node_win_latency_ns_bucket{le="1"} 1
node_win_latency_ns_bucket{le="127"} 3
node_win_latency_ns_bucket{le="+Inf"} 3
node_win_latency_ns_sum 201
node_win_latency_ns_count 3
# TYPE node_win_latency_ns_quantile gauge
node_win_latency_ns_quantile{quantile="0.5"} 100
node_win_latency_ns_quantile{quantile="0.95"} 100
node_win_latency_ns_quantile{quantile="0.99"} 100
`
	if got := golden(t, NewServer(r, nil, nil), "/metrics"); got != want {
		t.Fatalf("/metrics golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestJobsEndpointGolden(t *testing.T) {
	jobs := func() []JobInfo {
		return []JobInfo{{
			Name:                  "elastic-demo",
			LastCheckpoint:        12,
			Restarts:              1,
			Rescales:              2,
			LastRescaleDowntimeMs: 57,
			LastRescaleDurationMs: 9,
			Nodes: []NodeInfo{
				{Name: "src", Parallelism: 1, Source: true, Out: 100,
					Instances: []InstanceInfo{{ID: "src-0"}}},
				{Name: "win", Parallelism: 2, In: 100, Out: 10,
					Instances: []InstanceInfo{
						{ID: "win-0", QueueDepth: 1, QueueCapacity: 4, Watermark: 990, WatermarkLagMs: 10},
						{ID: "win-1", QueueCapacity: 4},
					}},
			},
			Edges: []EdgeInfo{{From: "src", To: "win", Partition: "hash"}},
		}}
	}

	want := `[
  {
    "name": "elastic-demo",
    "last_checkpoint": 12,
    "aborted_checkpoints": 0,
    "snapshot_save_failures": 0,
    "restarts": 1,
    "rescales": 2,
    "last_rescale_downtime_ms": 57,
    "last_rescale_duration_ms": 9,
    "nodes": [
      {
        "name": "src",
        "parallelism": 1,
        "source": true,
        "in": 0,
        "out": 100,
        "instances": [
          {
            "id": "src-0",
            "queue_depth": 0,
            "queue_capacity": 0,
            "watermark": 0,
            "watermark_lag_ms": 0
          }
        ]
      },
      {
        "name": "win",
        "parallelism": 2,
        "in": 100,
        "out": 10,
        "instances": [
          {
            "id": "win-0",
            "queue_depth": 1,
            "queue_capacity": 4,
            "watermark": 990,
            "watermark_lag_ms": 10
          },
          {
            "id": "win-1",
            "queue_depth": 0,
            "queue_capacity": 4,
            "watermark": 0,
            "watermark_lag_ms": 0
          }
        ]
      }
    ],
    "edges": [
      {
        "from": "src",
        "to": "win",
        "partition": "hash"
      }
    ]
  }
]
`
	if got := golden(t, NewServer(metrics.NewRegistry(), nil, jobs), "/jobs"); got != want {
		t.Fatalf("/jobs golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

// TestJobsEndpointOmitsRescaleLineageWhenUnset pins the omitempty contract:
// a fixed-parallelism job must not grow rescale fields.
func TestJobsEndpointOmitsRescaleLineageWhenUnset(t *testing.T) {
	jobs := func() []JobInfo { return []JobInfo{{Name: "plain"}} }
	want := `[
  {
    "name": "plain",
    "last_checkpoint": 0,
    "aborted_checkpoints": 0,
    "snapshot_save_failures": 0,
    "restarts": 0,
    "nodes": null,
    "edges": null
  }
]
`
	if got := golden(t, NewServer(metrics.NewRegistry(), nil, jobs), "/jobs"); got != want {
		t.Fatalf("/jobs golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}
