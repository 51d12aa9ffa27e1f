package fed

import (
	"fmt"
	"sync"

	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
)

// Coordinator is the SMO side of the federation: it owns the ring —
// minting a new epoch on every membership change — and fans out A1
// policies to all instances at once over the bus, alongside the
// SDL-backed A1 store the non-federated path already uses.
type Coordinator struct {
	store  *sdl.Store
	broker *Broker
	a1     *smo.A1

	mu   sync.Mutex
	ring *Ring
}

// NewCoordinator wraps the SMO's store and the federation broker.
func NewCoordinator(store *sdl.Store, broker *Broker) *Coordinator {
	return &Coordinator{store: store, broker: broker, a1: smo.NewA1(store)}
}

// Ring returns the current epoch (nil before SetInstances).
func (c *Coordinator) Ring() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// SetInstances publishes a fresh ring over the given membership.
func (c *Coordinator) SetInstances(ids []string) (*Ring, error) {
	c.mu.Lock()
	epoch := 1
	if c.ring != nil {
		epoch = c.ring.Epoch + 1
	}
	r := NewRing(epoch, ids)
	c.ring = r
	c.mu.Unlock()
	return r, c.publish(r)
}

// Join admits an instance and publishes the next epoch.
func (c *Coordinator) Join(id string) (*Ring, error) {
	c.mu.Lock()
	if c.ring == nil {
		c.mu.Unlock()
		return c.SetInstances([]string{id})
	}
	r := c.ring.WithJoined(id)
	c.ring = r
	c.mu.Unlock()
	return r, c.publish(r)
}

// Leave retires an instance and publishes the next epoch. Surviving
// instances take over its hash range; the leaver (if still running)
// sees a ring it is absent from and migrates everything out.
func (c *Coordinator) Leave(id string) (*Ring, error) {
	c.mu.Lock()
	if c.ring == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("fed: no ring to leave")
	}
	r := c.ring.WithLeft(id)
	c.ring = r
	c.mu.Unlock()
	return r, c.publish(r)
}

func (c *Coordinator) publish(r *Ring) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	c.store.Set(RingNamespace, RingKey, data)
	return c.broker.Publish(TopicRing, data)
}

// PushPolicy stores an A1 policy and fans it out to every federated
// instance on the bus.
func (c *Coordinator) PushPolicy(p smo.Policy) error {
	if err := c.a1.Put(p); err != nil {
		return err
	}
	stamped, ok := c.a1.Get(p.ID)
	if !ok {
		return fmt.Errorf("fed: policy %q vanished after put", p.ID)
	}
	data, err := stamped.Encode()
	if err != nil {
		return err
	}
	return c.broker.Publish(TopicPolicy, data)
}
