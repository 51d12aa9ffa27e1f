package fed

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// ClusterOptions configures an in-process federation.
type ClusterOptions struct {
	// Instances is the initial member count (default 2), named
	// "ric-0".."ric-N-1".
	Instances int
	// Models are deployed to every instance (required).
	Models *mobiwatch.Models
	// ShardBuffer is passed to every instance (see InstanceOptions).
	ShardBuffer int
}

// Cluster wires N federated instances to one coordinator and broker in
// a single process. Tests and xsec-bench -fed drive federations through
// it, so the protocol exercised everywhere is the same one.
type Cluster struct {
	Store       *sdl.Store // coordinator/SMO-side store (ring, A1)
	Broker      *Broker
	Coordinator *Coordinator

	opts ClusterOptions

	mu        sync.Mutex
	instances map[string]*Instance
	order     []string
	retired   uint64 // records scored by instances that have been stopped
	nextID    int
}

// StartCluster brings up the broker, coordinator, and initial
// instances, and publishes the first ring epoch.
func StartCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Instances <= 0 {
		opts.Instances = 2
	}
	if opts.Models == nil {
		return nil, fmt.Errorf("fed: cluster requires models")
	}
	store := sdl.New()
	cl := &Cluster{
		Store:     store,
		opts:      opts,
		instances: make(map[string]*Instance),
	}
	broker, err := NewBroker("127.0.0.1:0")
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.Broker = broker
	cl.Coordinator = NewCoordinator(store, broker)

	ids := make([]string, 0, opts.Instances)
	for n := 0; n < opts.Instances; n++ {
		id := fmt.Sprintf("ric-%d", n)
		if _, err := cl.startInstance(id); err != nil {
			cl.Close()
			return nil, err
		}
		ids = append(ids, id)
	}
	cl.nextID = opts.Instances
	ring, err := cl.Coordinator.SetInstances(ids)
	if err != nil {
		cl.Close()
		return nil, err
	}
	if err := cl.waitEpoch(ring.Epoch, 5*time.Second); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

func (cl *Cluster) startInstance(id string) (*Instance, error) {
	inst, err := StartInstance(InstanceOptions{
		ID:          id,
		Models:      cl.opts.Models,
		BusAddr:     cl.Broker.Addr(),
		ShardBuffer: cl.opts.ShardBuffer,
	})
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	cl.instances[id] = inst
	cl.order = append(cl.order, id)
	cl.mu.Unlock()
	return inst, nil
}

// waitEpoch blocks until every live instance has applied epoch.
func (cl *Cluster) waitEpoch(epoch int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lagging := ""
		for _, inst := range cl.Instances() {
			if inst.RingEpoch() < epoch {
				lagging = inst.ID()
				break
			}
		}
		if lagging == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fed: instance %s never applied ring epoch %d", lagging, epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Instance returns a member by ID (nil if absent).
func (cl *Cluster) Instance(id string) *Instance {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.instances[id]
}

// Instances lists live members in join order.
func (cl *Cluster) Instances() []*Instance {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]*Instance, 0, len(cl.instances))
	for _, id := range cl.order {
		if inst, ok := cl.instances[id]; ok {
			out = append(out, inst)
		}
	}
	return out
}

// OwnerOf returns the instance owning ue per the coordinator's ring.
func (cl *Cluster) OwnerOf(ue uint64) *Instance {
	r := cl.Coordinator.Ring()
	if r == nil {
		return nil
	}
	return cl.Instance(r.Owner(ue))
}

// Join starts a new instance (default name "ric-<n>") and publishes the
// epoch admitting it; it returns after every member applied the ring —
// rebalancing migrations toward the joiner may still be draining.
func (cl *Cluster) Join(id string) (*Instance, error) {
	if id == "" {
		cl.mu.Lock()
		id = fmt.Sprintf("ric-%d", cl.nextID)
		cl.nextID++
		cl.mu.Unlock()
	}
	inst, err := cl.startInstance(id)
	if err != nil {
		return nil, err
	}
	ring, err := cl.Coordinator.Join(id)
	if err != nil {
		return nil, err
	}
	if err := cl.waitEpoch(ring.Epoch, 5*time.Second); err != nil {
		return nil, err
	}
	return inst, nil
}

// Kill stops an instance abruptly — no drain, its un-migrated window
// state is lost (new owners cold-start those UEs) — then publishes the
// ring without it so survivors take over its hash range.
func (cl *Cluster) Kill(id string) error {
	inst := cl.Instance(id)
	if inst == nil {
		return fmt.Errorf("fed: no instance %q", id)
	}
	inst.Stop()
	cl.mu.Lock()
	delete(cl.instances, id)
	cl.retired += inst.Records()
	cl.mu.Unlock()
	_, err := cl.Coordinator.Leave(id)
	return err
}

// TotalRecords sums records scored across live and retired instances —
// the zero-loss invariant checked by the federation smoke: after
// quiescing, TotalRecords equals the number of records injected.
func (cl *Cluster) TotalRecords() uint64 {
	cl.mu.Lock()
	total := cl.retired
	insts := make([]*Instance, 0, len(cl.instances))
	for _, inst := range cl.instances {
		insts = append(insts, inst)
	}
	cl.mu.Unlock()
	for _, inst := range insts {
		total += inst.Records()
	}
	return total
}

// WaitRecords blocks until TotalRecords reaches n (quiescence barrier
// for paced feeding).
func (cl *Cluster) WaitRecords(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if got := cl.TotalRecords(); got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fed: %d/%d records scored before timeout", cl.TotalRecords(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops every instance and the broker.
func (cl *Cluster) Close() {
	cl.mu.Lock()
	ids := append([]string(nil), cl.order...)
	sort.Strings(ids)
	insts := make([]*Instance, 0, len(ids))
	for _, id := range ids {
		if inst, ok := cl.instances[id]; ok {
			insts = append(insts, inst)
			delete(cl.instances, id)
		}
	}
	cl.mu.Unlock()
	for _, inst := range insts {
		inst.Stop()
	}
	if cl.Broker != nil {
		cl.Broker.Close()
	}
}
