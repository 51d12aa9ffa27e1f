package rrc_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/f1ap"
	"github.com/6g-xsec/xsec/internal/pcaplite"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// captureContainers returns every RRC container of a benign-and-attack
// dataset session's F1AP capture, in capture order.
func captureContainers(f *testing.F) [][]byte {
	var buf bytes.Buffer
	w := pcaplite.NewWriter(&buf)
	if _, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: 3, Seed: 21, Capture: w},
		InstancesPerAttack: 1,
	}); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for r := pcaplite.NewReader(&buf); ; {
		pkt, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			f.Fatal(err)
		}
		if pkt.Iface != pcaplite.IfF1AP {
			continue
		}
		m, err := f1ap.Decode(pkt.Payload)
		if err != nil {
			f.Fatal(err)
		}
		if len(m.RRCContainer) > 0 {
			out = append(out, m.RRCContainer)
		}
	}
}

// FuzzRRCDecode holds rrc.Decode — what dataset.ParseCapture runs on
// every captured container (the gNB takes RRC as values) — to three
// properties on arbitrary bytes: it never panics; a message it
// accepts re-encodes to bytes that decode to an equal message (an absent
// and an empty NAS PDU are the same message); and nothing it returns is
// longer than the input (a NAS PDU is a copy of part of it). The seeds
// are the containers of a dataset session.
func FuzzRRCDecode(f *testing.F) {
	for _, pdu := range captureContainers(f) {
		f.Add(pdu)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := rrc.Decode(data)
		if err != nil {
			return
		}
		longest := 0
		leaves(reflect.ValueOf(m), func(v reflect.Value) { longest = max(longest, v.Len()) })
		if longest > len(data) {
			t.Fatalf("%d bytes decoded to a %d-long field: %+v", len(data), longest, m)
		}
		back, err := rrc.Decode(rrc.Encode(m))
		if err != nil || !reflect.DeepEqual(emptyToNil(back), emptyToNil(m)) {
			t.Fatalf("decode∘encode: %+v, %v; want %+v", back, err, m)
		}
	})
}

// emptyToNil sets every empty slice m holds to nil and returns m.
func emptyToNil(m rrc.Message) rrc.Message {
	leaves(reflect.ValueOf(m), func(v reflect.Value) {
		if v.Kind() == reflect.Slice && v.Len() == 0 {
			v.SetZero()
		}
	})
	return m
}

// leaves calls fn with every string and slice v holds.
func leaves(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			leaves(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			leaves(v.Field(i), fn)
		}
	case reflect.String, reflect.Slice:
		fn(v)
	}
}
