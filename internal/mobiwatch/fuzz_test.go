package mobiwatch

import (
	"encoding/json"
	"testing"

	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
)

// smallBundle returns an untrained bundle small enough to fuzz: two
// messages, window 2, one-unit hidden layers and all-zero weights, so
// its Save output is about a kilobyte of mostly structure.
func smallBundle() *Models {
	vocab := feature.NewVocabulary([]string{"RRCSetup", "RRCSetupRequest"})
	dim := feature.Dim(vocab)
	m := &Models{
		Vocab:         vocab,
		Window:        2,
		AE:            nn.NewAutoencoder(nn.AEConfig{InputDim: 2 * dim, Hidden: []int{1}, Seed: 1}),
		AEThreshold:   0.5,
		LSTM:          nn.NewLSTM(2, dim, 1, dim),
		LSTMThreshold: 0.5,
		engines:       &engineCache{},
	}
	for _, ps := range [][]*nn.Param{m.AE.Params(), m.LSTM.Params()} {
		for _, p := range ps {
			clear(p.W)
		}
	}
	return m
}

// scoresOneWindow scores a trace just long enough for one LSTM window
// (and two autoencoder windows) through both engines.
func scoresOneWindow(t *testing.T, m *Models) {
	t.Helper()
	tr := make(mobiflow.Trace, m.Window+1)
	for i := range tr {
		tr[i] = mobiflow.Record{Seq: uint64(i), UEID: 1, Msg: "RRCSetupRequest"}
	}
	if n := len(m.ScoreTraceAEBatched(tr, nn.Float32)); n != 2 {
		t.Errorf("autoencoder scored %d windows of %d records, want 2", n, len(tr))
	}
	if n := len(m.ScoreTraceLSTMBatched(tr, nn.Float32)); n != 1 {
		t.Errorf("lstm scored %d windows of %d records, want 1", n, len(tr))
	}
}

// TestLoadRejectsMismatchedShapes feeds Load bundles whose models do not
// fit the vocabulary and window they ship with. Each one used to load: a
// narrower LSTM then panicked in ScoreBatch, killing the worker, and a
// narrower autoencoder scored misaligned rows without a word.
func TestLoadRejectsMismatchedShapes(t *testing.T) {
	dim := feature.Dim(smallBundle().Vocab)
	snapshot := func(m interface{ Snapshot() ([]byte, error) }) json.RawMessage {
		data, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, c := range []struct {
		name    string
		corrupt func(b map[string]json.RawMessage)
	}{
		{"a message dropped", func(b map[string]json.RawMessage) { b["messages"] = json.RawMessage(`["RRCSetup"]`) }},
		{"window one longer", func(b map[string]json.RawMessage) { b["window"] = json.RawMessage(`3`) }},
		{"autoencoder input_dim one short", func(b map[string]json.RawMessage) {
			var ae map[string]json.RawMessage
			if err := json.Unmarshal(b["autoencoder"], &ae); err != nil {
				t.Fatal(err)
			}
			ae["input_dim"], _ = json.Marshal(2*dim - 1)
			b["autoencoder"], _ = json.Marshal(ae)
		}},
		{"autoencoder one record wide", func(b map[string]json.RawMessage) {
			b["autoencoder"] = snapshot(nn.NewAutoencoder(nn.AEConfig{InputDim: dim, Hidden: []int{1}, Seed: 1}))
		}},
		{"lstm one feature narrower", func(b map[string]json.RawMessage) { b["lstm"] = snapshot(nn.NewLSTM(2, dim-1, 1, dim-1)) }},
		{"lstm output one feature short", func(b map[string]json.RawMessage) { b["lstm"] = snapshot(nn.NewLSTM(2, dim, 1, dim-1)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			data, err := smallBundle().Save()
			if err != nil {
				t.Fatal(err)
			}
			var b map[string]json.RawMessage
			if err := json.Unmarshal(data, &b); err != nil {
				t.Fatal(err)
			}
			c.corrupt(b)
			if data, err = json.Marshal(b); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(data); err == nil {
				t.Error("loaded")
			}
		})
	}
	// The bundle they were cut from loads and scores.
	data, err := smallBundle().Save()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	scoresOneWindow(t, m)
}

// FuzzLoad holds Load — the path smo.Deploy takes registry bytes through
// to a running xApp — to one property on arbitrary bytes: it returns an
// error, or a bundle whose engines score a window without panicking. The
// seed is a small untrained bundle's Save output.
func FuzzLoad(f *testing.F) {
	data, err := smallBundle().Save()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(data)
		if err != nil {
			return
		}
		scoresOneWindow(t, m)
	})
}
