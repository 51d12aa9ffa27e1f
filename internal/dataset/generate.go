package dataset

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/gnb"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/ue"
)

// BenignConfig parameterizes benign dataset generation.
type BenignConfig struct {
	// Sessions is the number of UE sessions (the paper collects >100).
	Sessions int
	// Fleet is the number of distinct provisioned UEs; sessions cycle
	// through it so devices re-register with remembered GUTIs. Default
	// 20.
	Fleet int
	// Seed drives every random choice.
	Seed int64
	// Start is the virtual start time (default 2024-06-01T00:00Z).
	Start time.Time
}

func (c *BenignConfig) defaults() {
	if c.Sessions == 0 {
		c.Sessions = 120
	}
	if c.Fleet == 0 {
		c.Fleet = 20
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	}
}

// Scenario is a generated environment: the network, its fleet, and the
// collected telemetry.
type Scenario struct {
	GNB   *gnb.GNB
	AMF   *corenet.AMF
	Fleet []*ue.UE
	Clock *VClock

	rng *rand.Rand
}

// serviceProb is the probability that a registered UE resumes with a
// service request instead of a fresh registration.
const serviceProb = 0.25

// NewScenario builds a network with a provisioned fleet (no traffic yet).
func NewScenario(cfg BenignConfig) (*Scenario, error) {
	cfg.defaults()
	clock := NewVClock(cfg.Start)
	rng := rand.New(rand.NewSource(cfg.Seed))

	amf := corenet.NewAMF(cfg.Seed + 1)
	g, err := gnb.New(gnb.Config{
		NodeID: "gnb-001",
		AMF:    amf,
		Clock:  clock.Now,
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}

	fleet := make([]*ue.UE, cfg.Fleet)
	for i := range fleet {
		supi := cell.SUPI(fmt.Sprintf("imsi-00101%010d", i+1))
		var k [nas.KeySize]byte
		rng.Read(k[:])
		amf.AddSubscriber(corenet.Subscriber{SUPI: supi, K: k})
		u := ue.New(supi, k, ue.Profiles[i%len(ue.Profiles)], cfg.Seed+int64(i)+100)
		u.Pace = func() { clock.Advance(time.Duration(5+rng.Intn(45)) * time.Millisecond) }
		fleet[i] = u
	}
	return &Scenario{GNB: g, AMF: amf, Fleet: fleet, Clock: clock, rng: rng}, nil
}

// RunBenignSessions drives n sessions round-robin across the fleet,
// releasing abandoned contexts between sessions (modeling inactivity
// timers). It returns the number of completed sessions.
func (s *Scenario) RunBenignSessions(n int) (int, error) {
	completed := 0
	for i := 0; i < n; i++ {
		u := s.Fleet[i%len(s.Fleet)]
		// A registered device sometimes resumes with a service request
		// instead of re-registering — real idle-mode behavior that
		// diversifies the benign distribution.
		service := u.Registered() && s.rng.Float64() < serviceProb
		var res ue.SessionResult
		var err error
		if service {
			res, err = u.RunServiceSession(s.GNB)
		} else {
			res, err = u.RunSession(s.GNB)
		}
		if err != nil {
			return completed, fmt.Errorf("dataset: session %d (%s): %w", i, u.Profile.Name, err)
		}
		completed++
		// Inter-session gap.
		s.Clock.Advance(time.Duration(200+s.rng.Intn(800)) * time.Millisecond)
		// Inactivity release for abandoned contexts (service sessions
		// always go back to idle without signalling).
		if service || !u.Profile.Deregisters {
			s.GNB.ReleaseUE(res.UEID)
			s.AMF.ReleaseUE(res.UEID)
		}
	}
	return completed, nil
}

// GenerateBenign produces the benign dataset: cfg.Sessions sessions of
// diverse device traffic, returned as a single RAN-wide trace.
func GenerateBenign(cfg BenignConfig) (mobiflow.Trace, error) {
	cfg.defaults()
	s, err := NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := s.RunBenignSessions(cfg.Sessions); err != nil {
		return nil, err
	}
	return s.GNB.Records(), nil
}
