package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, err := schedule(7, 100, 20, time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := schedule(7, 100, 20, time.Second, 4*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c, _ := schedule(8, 100, 20, time.Second, 4*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleCountsOrderAndRange(t *testing.T) {
	const warmup, measure = 2 * time.Second, 20 * time.Second
	sched, err := schedule(1, 100, 20, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	count := map[opKind][2]int{} // warm-up, measured
	for i, a := range sched {
		if a.Due < 0 || a.Due >= warmup+measure {
			t.Fatalf("arrival %d due %v outside [0, %v)", i, a.Due, warmup+measure)
		}
		if i > 0 && a.Due < sched[i-1].Due {
			t.Fatalf("arrival %d due %v before its predecessor %v", i, a.Due, sched[i-1].Due)
		}
		c := count[a.Kind]
		if a.Due < warmup {
			c[0]++
		} else {
			c[1]++
		}
		count[a.Kind] = c
	}
	// The offered load is the same for every seed: rate × length, exactly.
	if got := count[opSession]; got != [2]int{200, 2000} {
		t.Errorf("sessions (warm-up, measured) = %v, want [200 2000]", got)
	}
	if got := count[opAttack]; got != [2]int{40, 400} {
		t.Errorf("attacks (warm-up, measured) = %v, want [40 400]", got)
	}
}

// The attack process must not move when the session rate changes: each
// process draws from its own generator.
func TestScheduleProcessesAreIndependent(t *testing.T) {
	pickAttacks := func(s []arrival) (out []time.Duration) {
		for _, a := range s {
			if a.Kind == opAttack {
				out = append(out, a.Due)
			}
		}
		return out
	}
	a, _ := schedule(3, 100, 20, time.Second, 4*time.Second)
	b, _ := schedule(3, 50, 20, time.Second, 4*time.Second)
	if !reflect.DeepEqual(pickAttacks(a), pickAttacks(b)) {
		t.Fatal("attack arrivals changed with the session rate")
	}
}

// Phase-lock guard: a fixed grid is refused, a Poisson process is not.
func TestFixedGridIsRejected(t *testing.T) {
	grid := make([]time.Duration, 200)
	for i := range grid {
		grid[i] = time.Duration(i) * 250 * time.Millisecond
	}
	if err := checkNotGrid(grid); err == nil {
		t.Fatal("a 250 ms grid passed the phase-lock guard")
	}
	// Jitter well below the 10 ms report period does not rescue a grid.
	rng := rand.New(rand.NewSource(1))
	for i := range grid {
		grid[i] += time.Duration(rng.Intn(1000)) * time.Microsecond
	}
	if err := checkNotGrid(grid); err == nil {
		t.Fatal("a grid with 1 ms jitter passed the phase-lock guard")
	}
	for seed := int64(1); seed <= 20; seed++ {
		offs := poisson(rand.New(rand.NewSource(seed)), 20, 0, 10*time.Second)
		if err := checkNotGrid(offs); err != nil {
			t.Fatalf("seed %d: Poisson schedule rejected: %v", seed, err)
		}
	}
}

func TestLatenessAccounting(t *testing.T) {
	var l lateness
	l.observe(-time.Millisecond) // early counts as on time
	l.observe(50 * time.Microsecond)
	l.observe(3 * time.Millisecond)
	l.observe(80 * time.Millisecond)
	if l.samples[0] != 0 {
		t.Errorf("early start recorded as %v ms late", l.samples[0])
	}
	h := l.histogram()
	if len(h) != len(lateBoundsMS)+1 {
		t.Fatalf("histogram has %d buckets, want %d", len(h), len(lateBoundsMS)+1)
	}
	// 0 and 0.05 ms ≤ 0.1; 3 ms ≤ 5; 80 ms in the open bucket.
	if h[0] != 2 || h[5] != 1 || h[len(h)-1] != 1 {
		t.Errorf("histogram = %v", h)
	}
}
