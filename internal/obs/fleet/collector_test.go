package fleet

import (
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/sdl"
)

// fakeClock injects a controllable timebase into the collector.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

func stateOf(c *Collector, instance string) State {
	for _, h := range c.Health() {
		if h.Instance == instance {
			return h.State
		}
	}
	return State(255)
}

func TestFailureDetectorLifecycle(t *testing.T) {
	clock := &fakeClock{now: time.Unix(10_000, 0)}
	store := sdl.New()
	var evicted []string
	col := NewCollector(CollectorOptions{
		Store: store,
		clock: clock.Now,
		Evict: func(instance string) error { evicted = append(evicted, instance); return nil },
	})

	col.OnHeartbeat(Heartbeat{Instance: "ric-0", Node: "gnb-ric-0", Seq: 1})
	col.OnHeartbeat(Heartbeat{Instance: "ric-1", Node: "gnb-ric-1", Seq: 1})
	if got := col.Alive(); got != 2 {
		t.Fatalf("alive after heartbeats = %d", got)
	}

	// ric-0 goes silent; ric-1 beats after every sweep, so it is never
	// silent for more than one step and never lapses. ric-0's silence
	// after n sweeps is n steps: past suspectAfter at 2, short of
	// DeadAfter at 3, past it at 4.
	const step = suspectAfter * 3 / 4
	if 2*step < suspectAfter || 3*step >= DeadAfter || 4*step < DeadAfter {
		t.Fatalf("step %v does not stage the detector's %v/%v deadlines", step, suspectAfter, DeadAfter)
	}
	seq := uint64(1)
	sweep := func() {
		col.Sweep(clock.Advance(step))
		seq++
		col.OnHeartbeat(Heartbeat{Instance: "ric-1", Seq: seq})
	}
	sweep()
	if st := stateOf(col, "ric-0"); st != StateAlive {
		t.Fatalf("ric-0 before deadline = %v", st)
	}

	// Past suspectAfter: suspect, not yet evicted, until DeadAfter.
	for n := 2; n <= 3; n++ {
		sweep()
		if st := stateOf(col, "ric-0"); st != StateSuspect {
			t.Fatalf("ric-0 after %d steps = %v, want suspect", n, st)
		}
		if len(evicted) != 0 {
			t.Fatalf("evicted while suspect: %v", evicted)
		}
	}

	// Past DeadAfter: dead, evicted exactly once, journaled.
	sweep()
	if st := stateOf(col, "ric-0"); st != StateDead {
		t.Fatalf("ric-0 past dead deadline = %v", st)
	}
	if len(evicted) != 1 || evicted[0] != "ric-0" {
		t.Fatalf("evictions = %v", evicted)
	}
	sweep()
	if len(evicted) != 1 {
		t.Fatalf("dead instance evicted twice: %v", evicted)
	}
	for _, h := range col.Health() {
		if h.Instance == "ric-0" && h.EvictedAt.IsZero() {
			t.Fatal("EvictedAt not recorded")
		}
		if h.Instance == "ric-1" && h.State != StateAlive {
			t.Fatalf("healthy peer transitioned: %v", h.State)
		}
	}

	journal := ReadJournal(store)
	if len(journal) != 2 {
		t.Fatalf("journal = %+v, want alive->suspect, suspect->dead", journal)
	}
	if journal[0].To != StateSuspect || journal[1].To != StateDead || journal[1].Instance != "ric-0" {
		t.Fatalf("journal transitions = %+v", journal)
	}

	// Rejoin: a fresh heartbeat resurrects the instance and journals it.
	col.OnHeartbeat(Heartbeat{Instance: "ric-0", Seq: 2})
	if st := stateOf(col, "ric-0"); st != StateAlive {
		t.Fatalf("ric-0 after rejoin = %v", st)
	}
	for _, h := range col.Health() {
		if h.Instance == "ric-0" && !h.EvictedAt.IsZero() {
			t.Fatal("EvictedAt survived the rejoin")
		}
	}
	journal = ReadJournal(store)
	if len(journal) != 3 || journal[2].To != StateAlive {
		t.Fatalf("rejoin not journaled: %+v", journal)
	}
}

func TestHeartbeatReplayIgnored(t *testing.T) {
	clock := &fakeClock{now: time.Unix(20_000, 0)}
	col := NewCollector(CollectorOptions{clock: clock.Now})

	col.OnHeartbeat(Heartbeat{Instance: "ric-0", Seq: 5, Epoch: 3})
	first := col.Health()[0].LastHeartbeat

	// The broker retains the heartbeat topic; a collector reconnect can
	// surface stale beacons. They must not refresh liveness.
	clock.Advance(time.Second)
	col.OnHeartbeat(Heartbeat{Instance: "ric-0", Seq: 3, Epoch: 1})
	h := col.Health()[0]
	if !h.LastHeartbeat.Equal(first) || h.HeartbeatSeq != 5 || h.Epoch != 3 {
		t.Fatalf("stale beacon applied: %+v", h)
	}

	// An equal-or-newer beacon does refresh.
	clock.Advance(time.Second)
	col.OnHeartbeat(Heartbeat{Instance: "ric-0", Seq: 6})
	if h := col.Health()[0]; h.HeartbeatSeq != 6 || !h.LastHeartbeat.After(first) {
		t.Fatalf("fresh beacon ignored: %+v", h)
	}
}

func TestScrapeRoundCompletion(t *testing.T) {
	clock := &fakeClock{now: time.Unix(30_000, 0)}
	var published []struct {
		topic   string
		payload []byte
	}
	col := NewCollector(CollectorOptions{
		clock: clock.Now,
		Publish: func(topic string, payload []byte) error {
			published = append(published, struct {
				topic   string
				payload []byte
			}{topic, payload})
			return nil
		},
	})

	col.OnHeartbeat(Heartbeat{Instance: "ric-0", Seq: 1})
	col.OnHeartbeat(Heartbeat{Instance: "ric-1", Seq: 1})

	done := col.ScrapeOnce()
	if done == nil {
		t.Fatal("scrape refused with live instances")
	}
	if len(published) != 1 || published[0].topic != TopicScrape {
		t.Fatalf("published = %+v", published)
	}
	req, err := ParseScrapeRequest(published[0].payload)
	if err != nil {
		t.Fatal(err)
	}

	col.OnReport(Report{Instance: "ric-0", Seq: req.Seq})
	select {
	case <-done:
		t.Fatal("round completed with one of two reports")
	default:
	}
	col.OnReport(Report{Instance: "ric-1", Seq: req.Seq})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("round never completed")
	}

	// The merged view now carries both instances.
	if got := len(col.MergedSeries()); got != 0 {
		// Empty reports merge to nothing; the point is no panic and a
		// completed round. Non-zero would mean phantom series.
		t.Fatalf("merged series from empty reports = %d", got)
	}
}

func TestScrapeSkipsDeadInstances(t *testing.T) {
	clock := &fakeClock{now: time.Unix(40_000, 0)}
	var rounds int
	col := NewCollector(CollectorOptions{
		clock:   clock.Now,
		Publish: func(string, []byte) error { rounds++; return nil },
	})
	col.OnHeartbeat(Heartbeat{Instance: "ric-0", Seq: 1})
	col.OnHeartbeat(Heartbeat{Instance: "ric-1", Seq: 1})
	// The detector is staged: one sweep to suspect, another to dead.
	col.Sweep(clock.Advance(DeadAfter))
	col.Sweep(clock.Now())

	if done := col.ScrapeOnce(); done != nil {
		t.Fatal("scrape proceeded with no live instance")
	}

	// One rejoins; the round waits only on it.
	col.OnHeartbeat(Heartbeat{Instance: "ric-1", Seq: 2})
	done := col.ScrapeOnce()
	if done == nil {
		t.Fatal("scrape refused after rejoin")
	}
	col.OnReport(Report{Instance: "ric-1", Seq: 2})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("round blocked on a dead instance's report")
	}
}
