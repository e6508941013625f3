package core

import (
	"repro/internal/obsv"
)

// partitionNames maps PartitionKind to the /jobs JSON vocabulary.
var partitionNames = map[PartitionKind]string{
	PartitionForward:   "forward",
	PartitionHash:      "hash",
	PartitionRebalance: "rebalance",
	PartitionBroadcast: "broadcast",
}

// Describe returns the job's topology and live runtime signals for the
// introspection server. Safe to call concurrently with a running job:
// counters and gauges are atomic, the logical graph is immutable after
// Build, and per-instance details appear once the job has wired its
// physical plan.
func (j *Job) Describe() obsv.JobInfo {
	info := obsv.JobInfo{
		Name:                 j.cfg.Name,
		LastCheckpoint:       j.lastCheckpoint.Load(),
		AbortedCheckpoints:   j.abortedCP.Load(),
		SnapshotSaveFailures: j.saveFailures.Load(),
	}
	byNode := make(map[*node][]obsv.InstanceInfo)
	if j.physDone.Load() {
		for _, in := range j.instances {
			ii := obsv.InstanceInfo{
				ID:            in.id,
				QueueDepth:    len(in.inbox),
				QueueCapacity: cap(in.inbox),
			}
			if in.wmGauge != nil {
				ii.Watermark = in.wmGauge.Value()
				ii.WatermarkLagMs = in.wmLag.Value()
				ii.TimersFired = in.timersFired.Value()
				ii.TimerNs = in.timerNs.Value()
			}
			byNode[in.node] = append(byNode[in.node], ii)
		}
		for _, s := range j.sources {
			byNode[s.node] = append(byNode[s.node], obsv.InstanceInfo{ID: s.id})
		}
	}
	for _, n := range j.graph.nodes {
		ni := obsv.NodeInfo{
			Name:        n.name,
			Parallelism: n.parallelism,
			Source:      n.isSource,
			In:          j.inCounter(n.name).Value(),
			Out:         j.outCounter(n.name).Value(),
			Instances:   byNode[n],
		}
		if n.isSource {
			ni.In = 0
		}
		info.Nodes = append(info.Nodes, ni)
	}
	for _, e := range j.graph.edges {
		info.Edges = append(info.Edges, obsv.EdgeInfo{
			From:      e.from.name,
			To:        e.to.name,
			Partition: partitionNames[e.kind],
		})
	}
	return info
}

// ServeIntrospection starts an HTTP introspection server for this job on
// addr (host:port; port 0 picks a free one) serving /metrics in Prometheus
// text format, /jobs (topology + live counters) and /traces (recent spans
// when Config.Tracer is set). The caller owns the returned server and should
// Close it when done; it can be started before or during Run.
func (j *Job) ServeIntrospection(addr string) (*obsv.Server, error) {
	s := obsv.NewServer(j.metrics, j.cfg.Tracer, func() []obsv.JobInfo {
		return []obsv.JobInfo{j.Describe()}
	})
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return s, nil
}

// RescaleCheckpointTraced is RescaleCheckpoint with a span recorded on tr
// (nil tr traces nothing), so reconfiguration shows up on /traces alongside
// checkpoints and operator activity.
func RescaleCheckpointTraced(tr *obsv.Tracer, store SnapshotStore, fromCP, toCP int64, nodeName string, newParallelism, numGroups int) (RescaleStats, error) {
	span := tr.Begin("rescale", nodeName, "").
		SetInt("from_checkpoint", fromCP).
		SetInt("to_checkpoint", toCP).
		SetInt("new_parallelism", int64(newParallelism))
	stats, err := RescaleCheckpoint(store, fromCP, toCP, nodeName, newParallelism, numGroups)
	if err != nil {
		span.SetAttr("error", err.Error())
	} else {
		span.SetInt("state_bytes", stats.StateBytes).SetInt("timers", int64(stats.Timers))
	}
	span.End()
	return stats, err
}
