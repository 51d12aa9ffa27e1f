package cell

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestSUPIValid(t *testing.T) {
	cases := []struct {
		supi SUPI
		want bool
	}{
		{"imsi-001010000000001", true},
		{"imsi-00101000000000", false},   // 14 digits
		{"imsi-0010100000000012", false}, // 16 digits
		{"imsi-00101000000000a", false},  // non-digit
		{"001010000000001", false},       // missing prefix
		{"", false},
	}
	for _, c := range cases {
		if got := c.supi.Valid(); got != c.want {
			t.Errorf("%q.Valid() = %v, want %v", c.supi, got, c.want)
		}
	}
}

func TestSUCIFromSUPINullScheme(t *testing.T) {
	suci, err := SUCIFromSUPI("imsi-001010000000001", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !suci.NullScheme() {
		t.Error("scheme 0 not reported as null scheme")
	}
	if suci.MSIN != "0000000001" {
		t.Errorf("MSIN = %q, want 0000000001", suci.MSIN)
	}
	if suci.PLMN.MCC != "001" || suci.PLMN.MNC != "01" {
		t.Errorf("PLMN = %v", suci.PLMN)
	}
}

func TestSUCIFromSUPIConcealed(t *testing.T) {
	suci, err := SUCIFromSUPI("imsi-001010000000001", 1)
	if err != nil {
		t.Fatal(err)
	}
	if suci.NullScheme() {
		t.Error("scheme 1 reported as null scheme")
	}
	if suci.MSIN != "**********" {
		t.Errorf("MSIN = %q, want concealed", suci.MSIN)
	}
}

func TestSUCIFromInvalidSUPI(t *testing.T) {
	if _, err := SUCIFromSUPI("bogus", 0); err == nil {
		t.Error("no error for invalid SUPI")
	}
}

func TestAlgorithmNullness(t *testing.T) {
	if !NEA0.Null() || NEA2.Null() {
		t.Error("CipherAlg.Null misclassifies")
	}
	if !NIA0.Null() || NIA2.Null() {
		t.Error("IntegAlg.Null misclassifies")
	}
}

func TestStringers(t *testing.T) {
	cases := []struct{ got, want string }{
		{RNTI(0x4601).String(), "0x4601"},
		{TMSI(0xDEADBEEF).String(), "0xDEADBEEF"},
		{NEA2.String(), "NEA2"},
		{NIA0.String(), "NIA0"},
		{CipherAlg(9).String(), "CipherAlg(9)"},
		{CauseMOSignalling.String(), "mo-Signalling"},
		{EstablishmentCause(99).String(), "cause(99)"},
		{Uplink.String(), "UL"},
		{Downlink.String(), "DL"},
		{TestPLMN.String(), "001-01"},
		{GUTI{PLMN: TestPLMN, AMFSetID: 1, TMSI: 0x10}.String(), "guti-001-01-1-0x00000010"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

// TestCauseValidity holds the cause table: every defined cause has its
// TS 38.331 name, and a value past the table renders as a number.
func TestCauseValidity(t *testing.T) {
	for c := CauseEmergency; c <= CauseMCSPriorityAccess; c++ {
		if name := c.String(); name == "" || name == fmt.Sprintf("cause(%d)", uint8(c)) {
			t.Errorf("cause %d has no name", c)
		}
	}
	if got := EstablishmentCause(200).String(); got != "cause(200)" {
		t.Errorf("cause 200 renders as %q", got)
	}
}

// Property: every valid 15-digit IMSI yields a SUCI that retains the PLMN
// and, under the null scheme, the MSIN.
func TestQuickSUCIPreservesIdentity(t *testing.T) {
	f := func(n uint64) bool {
		msin := n % 1_0000000000 // 10-digit MSIN
		supi := SUPI("imsi-00101" + padDigits(msin, 10))
		suci, err := SUCIFromSUPI(supi, 0)
		if err != nil {
			return false
		}
		return suci.MSIN == padDigits(msin, 10) && suci.PLMN == TestPLMN
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func padDigits(v uint64, width int) string {
	digits := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		digits[i] = byte('0' + v%10)
		v /= 10
	}
	return string(digits)
}
