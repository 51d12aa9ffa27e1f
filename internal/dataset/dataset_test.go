package dataset

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/ue"
)

func TestVClock(t *testing.T) {
	c := NewVClock(time.Unix(100, 0))
	if c.Now() != time.Unix(100, 0) {
		t.Fatal("start time wrong")
	}
	c.Advance(time.Second)
	if c.Now() != time.Unix(101, 0) {
		t.Fatal("advance wrong")
	}
}

func TestGenerateBenign(t *testing.T) {
	tr, err := GenerateBenign(BenignConfig{Sessions: 30, Fleet: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) < 30*10 {
		t.Fatalf("only %d records for 30 sessions", len(tr))
	}
	// Benign traffic must not contain protocol violations.
	ooo := 0
	retx := 0
	for _, r := range tr {
		if r.OutOfOrder {
			ooo++
		}
		if r.Retransmission {
			retx++
		}
	}
	if ooo != 0 {
		t.Errorf("%d out-of-order records in benign data", ooo)
	}
	if retx == 0 {
		t.Error("no retransmissions in benign data (noise model inactive)")
	}
	// Sessions span multiple UE contexts and several device profiles.
	if ues := tr.UEs(); len(ues) < 25 {
		t.Errorf("only %d UE contexts", len(ues))
	}
	// Timestamps are non-decreasing (virtual clock).
	for i := 1; i < len(tr); i++ {
		if tr[i].Timestamp.Before(tr[i-1].Timestamp) {
			t.Fatalf("timestamp regression at %d", i)
		}
	}
}

func TestGenerateBenignDeterministic(t *testing.T) {
	a, err := GenerateBenign(BenignConfig{Sessions: 10, Fleet: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateBenign(BenignConfig{Sessions: 10, Fleet: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Msg != b[i].Msg || a[i].Timestamp != b[i].Timestamp || a[i].RNTI != b[i].RNTI {
			t.Fatalf("record %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c, err := GenerateBenign(BenignConfig{Sessions: 10, Fleet: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Msg != c[i].Msg || a[i].RNTI != c[i].RNTI {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateMixedLabels(t *testing.T) {
	l, err := GenerateMixed(MixedConfig{
		BenignConfig:       BenignConfig{Fleet: 8, Seed: 3},
		InstancesPerAttack: 1,
		BenignBetween:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Trace) == 0 {
		t.Fatal("empty trace")
	}
	if len(l.Malicious) != len(l.Trace) || len(l.AttackOf) != len(l.Trace) {
		t.Fatal("label alignment broken")
	}
	if len(l.Events) != 5 {
		t.Fatalf("events = %d, want 5 (one per attack)", len(l.Events))
	}
	if l.MaliciousCount() == 0 {
		t.Fatal("no malicious records labeled")
	}
	// Each attack kind contributes at least one malicious record.
	perKind := make(map[int]int)
	for i, m := range l.Malicious {
		if m {
			perKind[l.AttackOf[i]]++
		}
	}
	for _, kind := range []ue.AttackKind{ue.AttackBTSDoS, ue.AttackBlindDoS, ue.AttackUplinkIDExtraction, ue.AttackDownlinkIDExtraction, ue.AttackNullCipher} {
		if perKind[int(kind)] == 0 {
			t.Errorf("attack %s has no malicious records", kind)
		}
	}
	// Benign context records must never be labeled malicious.
	for i, m := range l.Malicious {
		if m && l.AttackOf[i] == -1 {
			t.Errorf("record %d malicious but benign context", i)
		}
	}
	// The mixture property: a meaningful share of records is benign.
	benign := len(l.Trace) - l.MaliciousCount()
	if benign < l.MaliciousCount() {
		t.Errorf("dataset not benign-dominated: %d benign vs %d malicious", benign, l.MaliciousCount())
	}
}

func TestScenarioReuse(t *testing.T) {
	s, err := NewScenario(BenignConfig{Fleet: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.RunBenignSessions(6)
	if err != nil || n != 6 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if len(s.GNB.Records()) == 0 {
		t.Error("no records after sessions")
	}
	_ = mobiflow.Trace{}
}
