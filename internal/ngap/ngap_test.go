package ngap

import "testing"

func TestTypeNames(t *testing.T) {
	if TypeDownlinkNASTransport.String() != "DownlinkNASTransport" {
		t.Errorf("got %q", TypeDownlinkNASTransport.String())
	}
	if MessageType(88).String() != "MessageType(88)" {
		t.Errorf("got %q", MessageType(88).String())
	}
}
