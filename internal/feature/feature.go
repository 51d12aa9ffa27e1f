// Package feature converts MOBIFLOW telemetry into the numeric windows
// the MobiWatch models consume (§3.2 of the paper): categorical variables
// are one-hot encoded, identity variables (RNTI, TMSI, SUPI) become
// derived novelty/reuse indicators, and a sliding window of size N turns
// the time series τ into sequences S_i = {x_i ... x_{i+N-1}}.
//
// The encoder is streaming and stateful: identity-derived features (fresh
// RNTI, TMSI reuse across UE contexts) depend on what the encoder has
// seen so far, mirroring how the xApp observes the live E2 stream.
package feature

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// Vocabulary maps message names to one-hot indices. It is built from
// training traces and shipped alongside the model so training and
// inference encode identically.
type Vocabulary struct {
	// Messages lists the known message names in index order.
	Messages []string

	index map[string]int
}

// BuildVocabulary collects the distinct message names across traces, in
// sorted order for determinism.
func BuildVocabulary(traces ...mobiflow.Trace) *Vocabulary {
	seen := make(map[string]bool)
	for _, tr := range traces {
		for _, r := range tr {
			seen[r.Msg] = true
		}
	}
	msgs := make([]string, 0, len(seen))
	for m := range seen {
		msgs = append(msgs, m)
	}
	sort.Strings(msgs)
	return NewVocabulary(msgs)
}

// NewVocabulary builds a vocabulary from an explicit message list.
func NewVocabulary(messages []string) *Vocabulary {
	v := &Vocabulary{Messages: append([]string(nil), messages...), index: make(map[string]int, len(messages))}
	for i, m := range v.Messages {
		v.index[m] = i
	}
	return v
}

// Index returns the one-hot index for a message name; unknown messages
// map to the shared "unknown" bucket at index len(Messages).
func (v *Vocabulary) Index(msg string) int {
	if i, ok := v.index[msg]; ok {
		return i
	}
	return len(v.Messages)
}

// Size returns the number of message slots including the unknown bucket.
func (v *Vocabulary) Size() int { return len(v.Messages) + 1 }

// Fixed widths of the non-message feature groups.
const (
	widthDirection = 1
	widthLayer     = 1
	widthCipher    = 4 // NEA0..NEA3
	widthInteg     = 4 // NIA0..NIA3
	widthSecOn     = 1
	widthCause     = 10 // establishment causes
	widthRRCState  = 6
	widthNASState  = 6
	widthFlags     = 2 // out-of-order, retransmission
	// Derived identity/state features: rntiFresh, tmsiReuse,
	// tmsiPresent, supiExposed, nullSecActive, incompleteLoad,
	// floodIndicator, interArrival, burstIndicator.
	widthDerived = 9
)

// floodThreshold is the concurrent-incomplete-session count above which
// the flood indicator fires; benign traffic keeps at most a couple of
// procedures in flight, a signaling storm accumulates many (Figure 2b).
const floodThreshold = 3

// incompleteLoadCap normalizes the incomplete-session counter.
const incompleteLoadCap = 8

// burstInterval is the inter-arrival time below which the burst indicator
// fires. Human-paced devices emit control messages with multi-millisecond
// processing and radio-scheduling delays; a flood arrives faster.
const burstInterval = 5 * time.Millisecond

// interArrivalCap caps the log-scaled inter-arrival feature (1 s and
// beyond saturate to 1).
const interArrivalCapMS = 1000.0

// log10InterArrivalCap is the scale's denominator, computed once.
var log10InterArrivalCap = math.Log10(interArrivalCapMS + 1)

// Dim returns the per-record feature dimension for a vocabulary.
func Dim(v *Vocabulary) int {
	return v.Size() + widthDirection + widthLayer + widthCipher + widthInteg +
		widthSecOn + widthCause + widthRRCState + widthNASState + widthFlags + widthDerived
}

// Encoder streams Records into feature vectors. Not safe for concurrent
// use; MobiWatch owns one per subscription.
type Encoder struct {
	vocab *Vocabulary

	// rntiSeen has bit r set once RNTI r has been seen: 8 KiB for the
	// whole 16-bit space, so cycling RNTIs cannot grow the encoder.
	rntiSeen  [1 << 16 / 64]uint64
	tmsiOwner map[cell.TMSI]uint64
	// incomplete tracks UE contexts whose registration procedure is in
	// flight; the count of its true entries is the RAN's "incomplete
	// load", the multivariate DoS signature (many fabricated sessions
	// stuck before completion), kept in inFlight as entries change.
	incomplete map[uint64]bool
	inFlight   int
	// lastTS is the previous record's timestamp for inter-arrival
	// features (zero until the first record).
	lastTS time.Time

	// cols and vals are the last record's non-zero features, ascending
	// by column: every encoding writes through them, so the float32
	// paths allocate nothing in steady state.
	cols []int32
	vals []float64
}

// NewEncoder returns an Encoder over vocab with empty identity history.
func NewEncoder(vocab *Vocabulary) *Encoder {
	e := &Encoder{vocab: vocab}
	e.Reset()
	return e
}

// Reset clears the identity history (e.g. between independent captures).
func (e *Encoder) Reset() {
	clear(e.rntiSeen[:])
	e.tmsiOwner = make(map[cell.TMSI]uint64)
	e.incomplete = make(map[uint64]bool)
	e.inFlight = 0
}

// Dim returns the output dimension of Encode.
func (e *Encoder) Dim() int { return Dim(e.vocab) }

// Encode converts one record into its feature vector, updating the
// identity history.
func (e *Encoder) Encode(r mobiflow.Record) []float64 {
	out := make([]float64, e.Dim())
	e.encode(r)
	for i, c := range e.cols {
		out[c] = e.vals[i]
	}
	return out
}

// EncodeF32 encodes one record into dst (len ≥ e.Dim()) as float32,
// updating the identity history exactly like Encode: dst[i] is
// float32(Encode(r)[i]). Steady-state calls perform no heap allocation.
func (e *Encoder) EncodeF32(dst []float32, r mobiflow.Record) {
	e.encode(r)
	clear(dst[:e.Dim()])
	for i, c := range e.cols {
		dst[c] = float32(e.vals[i])
	}
}

// set records feature col = v; columns arrive in ascending order.
func (e *Encoder) set(col int, v float64) {
	e.cols = append(e.cols, int32(col))
	e.vals = append(e.vals, v)
}

// encode computes the non-zero features of r into e.cols / e.vals and
// updates the identity history.
func (e *Encoder) encode(r mobiflow.Record) {
	e.cols, e.vals = e.cols[:0], e.vals[:0]
	pos := 0

	// Message one-hot (with unknown bucket).
	e.set(pos+e.vocab.Index(r.Msg), 1)
	pos += e.vocab.Size()

	// Direction and layer.
	if r.Dir == cell.Uplink {
		e.set(pos, 1)
	}
	pos += widthDirection
	if r.Layer == mobiflow.LayerNAS {
		e.set(pos, 1)
	}
	pos += widthLayer

	// Security algorithms.
	if int(r.CipherAlg) < widthCipher {
		e.set(pos+int(r.CipherAlg), 1)
	}
	pos += widthCipher
	if int(r.IntegAlg) < widthInteg {
		e.set(pos+int(r.IntegAlg), 1)
	}
	pos += widthInteg
	if r.SecurityOn {
		e.set(pos, 1)
	}
	pos += widthSecOn

	// Establishment cause.
	if int(r.EstCause) < widthCause {
		e.set(pos+int(r.EstCause), 1)
	}
	pos += widthCause

	// Protocol states.
	if int(r.RRCState) < widthRRCState {
		e.set(pos+int(r.RRCState), 1)
	}
	pos += widthRRCState
	if int(r.NASState) < widthNASState {
		e.set(pos+int(r.NASState), 1)
	}
	pos += widthNASState

	// Protocol flags.
	if r.OutOfOrder {
		e.set(pos, 1)
	}
	if r.Retransmission {
		e.set(pos+1, 1)
	}
	pos += widthFlags

	// Derived identity features.
	rntiFresh := false
	if r.RNTI != cell.InvalidRNTI {
		seen, bit := &e.rntiSeen[r.RNTI/64], uint64(1)<<(r.RNTI%64)
		rntiFresh = *seen&bit == 0
		*seen |= bit
	}
	tmsiReuse := false
	if r.TMSI != cell.InvalidTMSI {
		owner, ok := e.tmsiOwner[r.TMSI]
		tmsiReuse = ok && owner != r.UEID
		if !ok || tmsiReuse {
			e.tmsiOwner[r.TMSI] = r.UEID
		}
	}
	if rntiFresh {
		e.set(pos, 1)
	}
	if tmsiReuse {
		e.set(pos+1, 1)
	}
	if r.TMSI != cell.InvalidTMSI {
		e.set(pos+2, 1)
	}
	if r.SUPI != "" && !r.SecurityOn {
		e.set(pos+3, 1) // plaintext permanent identity exposure
	}
	if r.SecurityOn && (r.CipherAlg.Null() || r.IntegAlg.Null()) {
		e.set(pos+4, 1) // null security actively selected
	}

	// Incomplete-session load: how many UE contexts have a registration
	// procedure in flight. Released or registered contexts leave the
	// set; abandoned ones accumulate — the resource-exhaustion footprint
	// of the DoS attacks.
	// One lookup; the map is written only where its entry changes.
	wasInFlight, known := e.incomplete[r.UEID]
	nowInFlight := false
	switch {
	case r.RRCState == rrc.StateReleased:
		if known {
			delete(e.incomplete, r.UEID)
		}
	case r.NASState == nas.StateRegistered:
		if !known || wasInFlight {
			e.incomplete[r.UEID] = false
		}
	default:
		nowInFlight = true
		if !wasInFlight {
			e.incomplete[r.UEID] = true
		}
	}
	if nowInFlight != wasInFlight {
		if nowInFlight {
			e.inFlight++
		} else {
			e.inFlight--
		}
	}
	load := min(e.inFlight, incompleteLoadCap)
	if load > 0 {
		e.set(pos+5, float64(load)/incompleteLoadCap)
	}
	if load >= floodThreshold {
		e.set(pos+6, 1)
	}

	// Inter-arrival time (t_i − t_{i−1}), log-scaled, plus a burst
	// indicator: control messages arriving faster than any real device
	// signals machine-generated flooding.
	if !e.lastTS.IsZero() && !r.Timestamp.IsZero() {
		dt := r.Timestamp.Sub(e.lastTS)
		if dt < 0 {
			dt = 0
		}
		ms := float64(dt) / float64(time.Millisecond)
		scaled := math.Log10(ms+1) / log10InterArrivalCap
		if scaled > 1 {
			scaled = 1
		}
		if scaled != 0 {
			e.set(pos+7, scaled)
		}
		if dt < burstInterval {
			e.set(pos+8, 1)
		}
	} else {
		e.set(pos+7, 0.5) // unknown: neutral midpoint
	}
	if !r.Timestamp.IsZero() {
		e.lastTS = r.Timestamp
	}
	pos += widthDerived

	if pos != e.Dim() {
		panic(fmt.Sprintf("feature: encoded %d of %d dims", pos, e.Dim()))
	}
}

// Vectorize encodes an entire trace with a fresh Encoder.
func Vectorize(tr mobiflow.Trace, vocab *Vocabulary) [][]float64 {
	e := NewEncoder(vocab)
	out := make([][]float64, len(tr))
	for i, r := range tr {
		out[i] = e.Encode(r)
	}
	return out
}

// WindowsAE slides a window of size n over vecs and flattens each window
// into a single vector for the autoencoder: len(out) == len(vecs)-n+1.
func WindowsAE(vecs [][]float64, n int) [][]float64 {
	if n <= 0 || len(vecs) < n {
		return nil
	}
	dim := len(vecs[0])
	out := make([][]float64, 0, len(vecs)-n+1)
	for i := 0; i+n <= len(vecs); i++ {
		w := make([]float64, 0, n*dim)
		for j := i; j < i+n; j++ {
			w = append(w, vecs[j]...)
		}
		out = append(out, w)
	}
	return out
}

// WindowsLSTM produces (window, next) pairs for next-step prediction:
// window i is vecs[i:i+n] and next is vecs[i+n].
func WindowsLSTM(vecs [][]float64, n int) (windows [][][]float64, nexts [][]float64) {
	if n <= 0 || len(vecs) <= n {
		return nil, nil
	}
	for i := 0; i+n < len(vecs); i++ {
		windows = append(windows, vecs[i:i+n])
		nexts = append(nexts, vecs[i+n])
	}
	return windows, nexts
}

// RowBuffer accumulates encoded records as contiguous float32 rows — the
// staging area between the streaming encoder and batched inference —
// with each row's non-zero column list kept beside it, as the encoder
// wrote it, and the row's ID from the buffer's Interner, if it has one.
// The scoring engines read windows of rows in place and run their input
// layers over those lists, so the feature→tensor path copies nothing and
// allocates nothing in steady state.
type RowBuffer struct {
	dim  int
	rows []float32 // flat, Len()×dim
	cols []int32   // every row's non-zero columns, ascending per row
	off  []int32   // Len()+1 offsets: row i's list is cols[off[i]:off[i+1]]
	ids  []uint32  // row i's ID from intern, 0 for none
	gen  uint64    // restarts of intern's IDs before this buffer's rows were named

	intern Interner // nil: every row's ID is 0
}

// An Interner names rows as a RowBuffer writes them, for a reader that
// keeps something per row bit pattern. Intern returns row's ID, or 0 for
// no ID: two rows given the same non-zero ID between two restarts are
// equal bit for bit. restarted reports that the IDs given before this
// one no longer hold (they may be given again), and the buffer then
// forgets the IDs of the rows it already holds.
type Interner interface {
	Intern(row []float32, cols []int32) (id uint32, restarted bool)
}

// NewRowBuffer returns an empty buffer for rows of the given dimension.
func NewRowBuffer(dim int) *RowBuffer {
	if dim <= 0 {
		panic("feature: NewRowBuffer needs dim > 0")
	}
	return &RowBuffer{dim: dim, off: []int32{0}}
}

// InternWith makes in name every row Push writes from now on.
func (b *RowBuffer) InternWith(in Interner) { b.intern = in }

// Dim returns the per-row feature dimension.
func (b *RowBuffer) Dim() int { return b.dim }

// Len returns the number of buffered rows.
func (b *RowBuffer) Len() int { return len(b.rows) / b.dim }

// Push encodes r through e directly into the buffer's next row and its
// column list: the columns whose float32 bit pattern is not zero, so a
// −0 would be listed. The buffer's Interner, if any, names the row. The
// backing arrays grow geometrically and are then reused, so a buffer
// that is Trimmed back down stops allocating.
func (b *RowBuffer) Push(e *Encoder, r mobiflow.Record) {
	if e.Dim() != b.dim {
		panic(fmt.Sprintf("feature: RowBuffer of %d columns pushed a record of %d", b.dim, e.Dim()))
	}
	e.encode(r)
	n := len(b.rows)
	b.rows = slices.Grow(b.rows, b.dim)[:n+b.dim]
	row := b.rows[n:]
	clear(row)
	first := len(b.cols)
	for i, c := range e.cols {
		v := float32(e.vals[i])
		row[c] = v
		if math.Float32bits(v) != 0 {
			b.cols = append(b.cols, c)
		}
	}
	b.off = append(b.off, int32(len(b.cols)))
	var id uint32
	if b.intern != nil {
		var restarted bool
		if id, restarted = b.intern.Intern(row, b.cols[first:]); restarted {
			clear(b.ids)
			b.gen++
		}
	}
	b.ids = append(b.ids, id)
}

// Trim drops the oldest drop rows, sliding the rest down in place.
func (b *RowBuffer) Trim(drop int) {
	if drop <= 0 {
		return
	}
	if drop >= b.Len() {
		b.rows, b.cols, b.off, b.ids = b.rows[:0], b.cols[:0], b.off[:1], b.ids[:0]
		return
	}
	cut := b.off[drop]
	b.rows = b.rows[:copy(b.rows, b.rows[drop*b.dim:])]
	b.cols = b.cols[:copy(b.cols, b.cols[cut:])]
	b.off = b.off[:copy(b.off, b.off[drop:])]
	b.ids = b.ids[:copy(b.ids, b.ids[drop:])]
	for i := range b.off {
		b.off[i] -= cut
	}
}

// CopyFrom makes b a copy of src's rows from row from on, each with its
// column list and ID: row i of b is then row from+i of src. b's backing
// arrays are reused, so a buffer copied into again and again stops
// allocating.
func (b *RowBuffer) CopyFrom(src *RowBuffer, from int) {
	if src.dim != b.dim {
		panic(fmt.Sprintf("feature: RowBuffer of %d columns copied from one of %d", b.dim, src.dim))
	}
	cut := src.off[from]
	b.rows = append(b.rows[:0], src.rows[from*b.dim:]...)
	b.cols = append(b.cols[:0], src.cols[cut:]...)
	b.off = append(b.off[:0], src.off[from:]...)
	b.ids = append(b.ids[:0], src.ids[from:]...)
	b.gen = src.gen
	for i := range b.off {
		b.off[i] -= cut
	}
}

// Row returns a view of row i, valid until the next Push or Trim.
func (b *RowBuffer) Row(i int) []float32 {
	return b.rows[i*b.dim : (i+1)*b.dim]
}

// Cols returns row i's non-zero columns, ascending, valid until the next
// Push or Trim.
func (b *RowBuffer) Cols(i int) []int32 {
	return b.cols[b.off[i]:b.off[i+1]]
}

// Sparse returns views of the whole buffer, valid until the next Push or
// Trim: the rows, flat, and every row's column list as Cols describes it
// — cols[off[i]:off[i+1]] for row i.
func (b *RowBuffer) Sparse() (rows []float32, cols, off []int32) {
	return b.rows, b.cols, b.off
}

// IDs returns every row's ID, row for row (0 for a row without one), valid
// until the next Push or Trim, and how many times the Interner had
// restarted its IDs when it named them: IDs of one restart count only
// compare with each other.
func (b *RowBuffer) IDs() (ids []uint32, gen uint64) { return b.ids, b.gen }

// WindowLabels derives per-window labels from per-record labels using the
// paper's rule (§4, Dataset Labeling): any window containing a malicious
// record x_i is malicious, i.e. windows i-N+1 ... i for record i.
// n is the window size; the result aligns with WindowsAE output.
func WindowLabels(recordMalicious []bool, n int) []bool {
	if n <= 0 || len(recordMalicious) < n {
		return nil
	}
	out := make([]bool, len(recordMalicious)-n+1)
	for i := range out {
		for j := i; j < i+n; j++ {
			if recordMalicious[j] {
				out[i] = true
				break
			}
		}
	}
	return out
}

// WindowLabelsNext aligns labels with WindowsLSTM output: pair i covers
// records i..i+n (window plus the predicted record).
func WindowLabelsNext(recordMalicious []bool, n int) []bool {
	if n <= 0 || len(recordMalicious) <= n {
		return nil
	}
	out := make([]bool, len(recordMalicious)-n)
	for i := range out {
		for j := i; j <= i+n; j++ {
			if recordMalicious[j] {
				out[i] = true
				break
			}
		}
	}
	return out
}
