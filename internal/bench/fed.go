package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/6g-xsec/xsec/internal/fed"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// This file produces the federation baseline (BENCH_fed.json,
// `xsec-bench -fed`): aggregate detection throughput of an N-instance
// federation versus a single RIC over the same telemetry, plus a
// join/kill rebalance smoke asserting zero scored-record loss.
//
// Two aggregate numbers are reported, deliberately:
//
//   - colocated: N instances scoring their hash-partitioned share
//     concurrently in this one process. On a single core this cannot
//     beat one instance — the instances time-share the CPU and pay the
//     coordination overhead — so it is reported as the honest
//     worst-case, not the headline.
//   - capacity: the sum of each instance's isolated rate over its own
//     partition, measured sequentially so instances never contend. This
//     is the throughput an N-host deployment adds up to (each RIC owns
//     its slice of the UE-hash ring and scores only its own share), and
//     is the number the ≥3× target for 4 instances refers to.

// FedOptions configures the federation benchmark.
type FedOptions struct {
	// Seed drives dataset generation and training.
	Seed int64
	// Smoke shrinks the workload so CI can exercise the path quickly.
	Smoke bool
}

const (
	// fedInstances is the federation size compared against one instance.
	fedInstances = 4
	// fedPasses / fedSmokePasses replay the mixed telemetry trace this
	// many times per phase.
	fedPasses      = 30
	fedSmokePasses = 2
	// fedWindow bounds the records outstanding at one instance (injected
	// but not yet scored). The gNB agent reports on a 10 ms period, so
	// stop-and-wait chunks would measure that period, not the scorer;
	// a window keeps the agent's buffer fed while the scorer drains.
	// Every indication carries at least one record, so a shard queue of
	// fedWindow entries can never overflow and nothing is dropped.
	fedWindow = 2048
	// fedStall fails a feed whose instance stops scoring.
	fedStall = 30 * time.Second
)

// FedResult is the machine-readable baseline for BENCH_fed.json.
type FedResult struct {
	GoMaxProcs int  `json:"gomaxprocs"`
	NumCPU     int  `json:"num_cpu"`
	Smoke      bool `json:"smoke"`
	Instances  int  `json:"instances"`
	Records    int  `json:"records_per_phase"`

	// SingleRate is one instance scoring the whole stream (records/s).
	SingleRate float64 `json:"single_rate"`
	// CapacityPerInstance are the isolated per-partition rates; their
	// sum is CapacityRate, the N-host aggregate.
	CapacityPerInstance []float64 `json:"capacity_per_instance"`
	CapacityRate        float64   `json:"capacity_rate"`
	CapacitySpeedup     float64   `json:"capacity_speedup"`
	// ColocatedRate is the N instances running concurrently in this
	// process (single-host worst case).
	ColocatedRate    float64 `json:"colocated_rate"`
	ColocatedSpeedup float64 `json:"colocated_speedup"`

	// Rebalance smoke: records injected across a join and an abrupt
	// kill, with pacing quiescing between chunks; zero loss means every
	// injected record was scored by some member.
	RebalanceInjected uint64 `json:"rebalance_injected"`
	RebalanceScored   uint64 `json:"rebalance_scored"`
	RebalanceZeroLoss bool   `json:"rebalance_zero_loss"`
	// RebalanceMigrated counts UE contexts the joiner received via live
	// state migration before the kill.
	RebalanceMigrated int `json:"rebalance_migrated"`

	Note string `json:"note"`
}

// JSON renders the baseline.
func (r *FedResult) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Format renders the human-readable summary.
func (r *FedResult) Format() string {
	rows := [][]string{
		{"single (1 instance)", fedRate(r.SingleRate), "1.00x"},
		{fmt.Sprintf("colocated (%d, 1 host)", r.Instances), fedRate(r.ColocatedRate),
			fmt.Sprintf("%.2fx", r.ColocatedSpeedup)},
		{fmt.Sprintf("capacity (%d hosts)", r.Instances), fedRate(r.CapacityRate),
			fmt.Sprintf("%.2fx", r.CapacitySpeedup)},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Federated detection throughput (%d records/phase, GOMAXPROCS=%d)\n\n",
		r.Records, r.GoMaxProcs)
	b.WriteString(formatTable([]string{"configuration", "records/s", "speedup"}, rows))
	b.WriteString("\nrebalance smoke: ")
	fmt.Fprintf(&b, "%d/%d records scored across join+kill (zero loss: %v), %d UE contexts live-migrated to the joiner\n",
		r.RebalanceScored, r.RebalanceInjected, r.RebalanceZeroLoss, r.RebalanceMigrated)
	b.WriteString("\n" + r.Note + "\n")
	return b.String()
}

func fedRate(v float64) string { return fmt.Sprintf("%.0f", v) }

// partition splits a trace by ring owner, keeping stream order within
// each share; the gNB agent does the per-UE grouping.
func partition(cl *fed.Cluster, tr mobiflow.Trace) (map[string]mobiflow.Trace, error) {
	parts := make(map[string]mobiflow.Trace)
	for _, rec := range tr {
		owner := cl.OwnerOf(rec.UEID)
		if owner == nil {
			return nil, fmt.Errorf("bench: no ring owner for UE %d", rec.UEID)
		}
		parts[owner.ID()] = append(parts[owner.ID()], rec)
	}
	return parts, nil
}

// feedWindowed replays tr passes times into one instance's gNB, keeping
// at most fedWindow records outstanding, and returns once every record
// has been scored.
func feedWindowed(inst *fed.Instance, tr mobiflow.Trace, passes int) error {
	base := inst.Records()
	total, sent := len(tr)*passes, 0
	scored, progressAt := 0, time.Now()
	for scored < total {
		if now := int(inst.Records() - base); now > scored {
			scored, progressAt = now, time.Now()
		}
		if room := fedWindow - (sent - scored); room > 0 && sent < total {
			at := sent % len(tr)
			n := min(room, len(tr)-at, total-sent)
			inst.GNB().InjectTelemetry(tr[at : at+n])
			sent += n
			continue
		}
		if time.Since(progressAt) > fedStall {
			return fmt.Errorf("bench: instance %s scored %d/%d records", inst.ID(), scored, sent)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// RunFedBench measures federated versus single-instance detection
// throughput and runs the join/kill rebalance smoke. It fails when the
// smoke loses a record, so a CI run of it asserts zero loss.
func RunFedBench(opts FedOptions) (*FedResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	passes := fedPasses
	if opts.Smoke {
		passes = fedSmokePasses
	}
	env, err := BuildEnv(Quick(opts.Seed))
	if err != nil {
		return nil, err
	}
	trace := env.Mixed.Trace
	phaseRecords := len(trace) * passes
	res := &FedResult{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Smoke:      opts.Smoke,
		Instances:  fedInstances,
		Records:    phaseRecords,
	}
	withCluster := func(n int, phase func(*fed.Cluster) error) error {
		cl, err := fed.StartCluster(fed.ClusterOptions{
			Instances: n, Models: env.Models, ShardBuffer: fedWindow,
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		return phase(cl)
	}

	// Phase 1: one instance scores everything.
	err = withCluster(1, func(cl *fed.Cluster) error {
		startT := time.Now()
		err := feedWindowed(cl.Instances()[0], trace, passes)
		res.SingleRate = float64(phaseRecords) / time.Since(startT).Seconds()
		return err
	})
	if err != nil {
		return nil, err
	}
	// Phases 2+3: an N-instance federation over the hash-partitioned
	// stream.
	err = withCluster(fedInstances, func(cl *fed.Cluster) error {
		return measureFederation(cl, trace, passes, res)
	})
	if err != nil {
		return nil, err
	}
	if res.SingleRate > 0 {
		res.CapacitySpeedup = res.CapacityRate / res.SingleRate
		res.ColocatedSpeedup = res.ColocatedRate / res.SingleRate
	}
	err = withCluster(2, func(cl *fed.Cluster) error {
		return runRebalanceSmoke(cl, trace, res)
	})
	if err != nil {
		return nil, err
	}
	if !res.RebalanceZeroLoss {
		return nil, fmt.Errorf("bench: rebalance smoke lost records: %d/%d scored across join+kill",
			res.RebalanceScored, res.RebalanceInjected)
	}

	res.Note = "capacity sums per-instance isolated rates (sequential measurement; what N " +
		"single-core hosts aggregate to when each owns its ring slice); colocated shares " +
		fmt.Sprintf("GOMAXPROCS=%d core(s) in one process and includes coordination overhead, ",
			res.GoMaxProcs) +
		"so it is the single-host floor, not the deployment headline"
	return res, nil
}

// measureFederation scores the ring-partitioned stream on cl twice:
// each member's share in isolation (capacity), then all shares
// concurrently (colocated).
func measureFederation(cl *fed.Cluster, trace mobiflow.Trace, passes int, res *FedResult) error {
	parts, err := partition(cl, trace)
	if err != nil {
		return err
	}
	for _, member := range cl.Instances() {
		share := parts[member.ID()]
		if len(share) == 0 {
			res.CapacityPerInstance = append(res.CapacityPerInstance, 0)
			continue
		}
		startT := time.Now()
		if err := feedWindowed(member, share, passes); err != nil {
			return err
		}
		r := float64(len(share)*passes) / time.Since(startT).Seconds()
		res.CapacityPerInstance = append(res.CapacityPerInstance, r)
		res.CapacityRate += r
	}

	errc := make(chan error, len(parts))
	startT := time.Now()
	for id, share := range parts {
		go func(member *fed.Instance, share mobiflow.Trace) {
			errc <- feedWindowed(member, share, passes)
		}(cl.Instance(id), share)
	}
	for range parts {
		if ferr := <-errc; ferr != nil {
			err = ferr
		}
	}
	res.ColocatedRate = float64(len(trace)*passes) / time.Since(startT).Seconds()
	return err
}

// runRebalanceSmoke feeds a stream to the current ring owners while a
// member joins (receiving live-migrated UE state) and is then abruptly
// killed. Every injected record must still be scored by some member:
// each step quiesces the pipeline, so no record is in a gNB agent's
// buffer when its instance is killed.
func runRebalanceSmoke(cl *fed.Cluster, trace mobiflow.Trace, res *FedResult) error {
	feed := func(tr mobiflow.Trace) error {
		for len(tr) > 0 {
			n := min(fedWindow, len(tr))
			parts, err := partition(cl, tr[:n])
			if err != nil {
				return err
			}
			for id, share := range parts {
				cl.Instance(id).GNB().InjectTelemetry(share)
			}
			res.RebalanceInjected += uint64(n)
			if err := cl.WaitRecords(res.RebalanceInjected, fedStall); err != nil {
				return err
			}
			tr = tr[n:]
		}
		return nil
	}

	third := len(trace) / 3
	if err := feed(trace[:third]); err != nil {
		return err
	}

	joiner, err := cl.Join("")
	if err != nil {
		return err
	}
	if err := feed(trace[third : 2*third]); err != nil {
		return err
	}
	// Let the ring-driven migrations toward the joiner settle, then
	// count what it received before killing it.
	settle := time.Now().Add(5 * time.Second)
	last := -1
	for time.Now().Before(settle) {
		n := len(joiner.UEs())
		if n == last {
			break
		}
		last = n
		time.Sleep(50 * time.Millisecond)
	}
	res.RebalanceMigrated = len(joiner.UEs())
	if err := cl.Kill(joiner.ID()); err != nil {
		return err
	}

	if err := feed(trace[2*third:]); err != nil {
		return err
	}
	res.RebalanceScored = cl.TotalRecords()
	res.RebalanceZeroLoss = res.RebalanceScored == res.RebalanceInjected
	return nil
}
