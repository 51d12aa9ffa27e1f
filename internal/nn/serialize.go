package nn

import (
	"encoding/json"
	"fmt"
)

// This file implements JSON model serialization, used by the SMO's
// train-then-deploy workflow: models are trained offline (or by the
// non-RT RIC rApp), snapshotted, stored in the model registry, and loaded
// by the MobiWatch xApp for online inference.

// denseSnapshot is the serialized form of one dense layer.
type denseSnapshot struct {
	In  int        `json:"in"`
	Out int        `json:"out"`
	Act Activation `json:"act"`
	W   []float64  `json:"w"`
	B   []float64  `json:"b"`
}

// aeSnapshot is the serialized form of an Autoencoder.
type aeSnapshot struct {
	Kind     string          `json:"kind"`
	InputDim int             `json:"input_dim"`
	Layers   []denseSnapshot `json:"layers"`
}

// Snapshot serializes the autoencoder (architecture + weights) to JSON.
func (a *Autoencoder) Snapshot() ([]byte, error) {
	snap := aeSnapshot{Kind: "autoencoder", InputDim: a.inputDim}
	for _, l := range a.net.layers {
		snap.Layers = append(snap.Layers, denseSnapshot{
			In: l.In, Out: l.Out, Act: l.Act,
			W: append([]float64(nil), l.w.W...),
			B: append([]float64(nil), l.b.W...),
		})
	}
	return json.Marshal(snap)
}

// LoadAutoencoder reconstructs an autoencoder from Snapshot output.
func LoadAutoencoder(data []byte) (*Autoencoder, error) {
	var snap aeSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("nn: parsing autoencoder snapshot: %w", err)
	}
	if snap.Kind != "autoencoder" {
		return nil, fmt.Errorf("nn: snapshot kind %q, want autoencoder", snap.Kind)
	}
	if len(snap.Layers) == 0 {
		return nil, fmt.Errorf("nn: autoencoder snapshot has no layers")
	}
	// The layers chain from input_dim back to input_dim, so every width
	// is some layer's bias length: no product below can overflow.
	m := &MLP{}
	width := snap.InputDim
	for i, ls := range snap.Layers {
		if ls.In != width || ls.In <= 0 || ls.Out <= 0 {
			return nil, fmt.Errorf("nn: layer %d is %d→%d, but its input is %d wide", i, ls.In, ls.Out, width)
		}
		if len(ls.W) != ls.In*ls.Out || len(ls.B) != ls.Out {
			return nil, fmt.Errorf("nn: layer %d has inconsistent shapes", i)
		}
		width = ls.Out
		d := &Dense{
			In: ls.In, Out: ls.Out, Act: ls.Act,
			w: &Param{Name: fmt.Sprintf("dense%dx%d.w", ls.Out, ls.In), W: append([]float64(nil), ls.W...), G: make([]float64, len(ls.W))},
			b: &Param{Name: fmt.Sprintf("dense%dx%d.b", ls.Out, ls.In), W: append([]float64(nil), ls.B...), G: make([]float64, len(ls.B))},
		}
		m.layers = append(m.layers, d)
		m.params = append(m.params, d.Params()...)
	}
	if width != snap.InputDim {
		return nil, fmt.Errorf("nn: autoencoder reconstructs %d values of a %d-wide input", width, snap.InputDim)
	}
	return &Autoencoder{net: m, inputDim: snap.InputDim}, nil
}

// lstmSnapshot is the serialized form of an LSTM.
type lstmSnapshot struct {
	Kind   string    `json:"kind"`
	InDim  int       `json:"in_dim"`
	HidDim int       `json:"hid_dim"`
	OutDim int       `json:"out_dim"`
	Wx     []float64 `json:"wx"`
	Wh     []float64 `json:"wh"`
	B      []float64 `json:"b"`
	Wy     []float64 `json:"wy"`
	By     []float64 `json:"by"`
}

// Snapshot serializes the LSTM (architecture + weights) to JSON.
func (l *LSTM) Snapshot() ([]byte, error) {
	return json.Marshal(lstmSnapshot{
		Kind: "lstm", InDim: l.inDim, HidDim: l.hidDim, OutDim: l.outDim,
		Wx: append([]float64(nil), l.wx.W...),
		Wh: append([]float64(nil), l.wh.W...),
		B:  append([]float64(nil), l.b.W...),
		Wy: append([]float64(nil), l.wy.W...),
		By: append([]float64(nil), l.by.W...),
	})
}

// LoadLSTM reconstructs an LSTM from Snapshot output.
func LoadLSTM(data []byte) (*LSTM, error) {
	var snap lstmSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("nn: parsing lstm snapshot: %w", err)
	}
	if snap.Kind != "lstm" {
		return nil, fmt.Errorf("nn: snapshot kind %q, want lstm", snap.Kind)
	}
	if snap.InDim <= 0 || snap.HidDim <= 0 || snap.OutDim <= 0 {
		return nil, fmt.Errorf("nn: lstm snapshot has non-positive dims")
	}
	// H and O are checked against bias lengths, D by division, so a huge
	// declared dim cannot wrap a product round to a length it has.
	H, D, O := snap.HidDim, snap.InDim, snap.OutDim
	if len(snap.B)%4 != 0 || len(snap.B)/4 != H || len(snap.By) != O ||
		len(snap.Wx)%(4*H) != 0 || len(snap.Wx)/(4*H) != D ||
		len(snap.Wh) != 4*H*H || len(snap.Wy) != O*H {
		return nil, fmt.Errorf("nn: lstm snapshot has inconsistent shapes")
	}
	l := NewLSTM(0, D, H, O)
	copy(l.wx.W, snap.Wx)
	copy(l.wh.W, snap.Wh)
	copy(l.b.W, snap.B)
	copy(l.wy.W, snap.Wy)
	copy(l.by.W, snap.By)
	return l, nil
}
