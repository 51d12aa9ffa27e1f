package mobiflow

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// Trace is a time series τ = {x_1, ..., x_M} of telemetry records, ordered
// by sequence number.
type Trace []Record

// SortBySeq orders the trace by sequence number (stable for equal Seq).
func (t Trace) SortBySeq() {
	sort.SliceStable(t, func(i, j int) bool { return t[i].Seq < t[j].Seq })
}

// FilterUE returns the sub-trace belonging to one UE context.
func (t Trace) FilterUE(ueID uint64) Trace {
	var out Trace
	for _, r := range t {
		if r.UEID == ueID {
			out = append(out, r)
		}
	}
	return out
}

// FirstSeq returns the lowest sequence number in the trace (0 when
// empty). The trace need not be sorted.
func (t Trace) FirstSeq() uint64 {
	if len(t) == 0 {
		return 0
	}
	first := t[0].Seq
	for _, r := range t[1:] {
		if r.Seq < first {
			first = r.Seq
		}
	}
	return first
}

// LastSeq returns the highest sequence number in the trace (0 when
// empty). The trace need not be sorted.
func (t Trace) LastSeq() uint64 {
	var last uint64
	for _, r := range t {
		if r.Seq > last {
			last = r.Seq
		}
	}
	return last
}

// UEs returns the distinct UE context IDs in the trace, sorted.
func (t Trace) UEs() []uint64 {
	seen := make(map[uint64]bool)
	for _, r := range t {
		seen[r.UEID] = true
	}
	ids := make([]uint64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Messages returns the message-name sequence, the m_i series.
func (t Trace) Messages() []string {
	out := make([]string, len(t))
	for i, r := range t {
		out[i] = r.Msg
	}
	return out
}

// csvHeader lists the exported CSV columns, mirroring Table 1.
var csvHeader = []string{
	"seq", "timestamp_ns", "ue_id", "msg", "layer", "dir",
	"rnti", "s_tmsi", "supi", "cipher_alg", "integrity_alg", "security_on",
	"establish_cause", "rrc_state", "nas_state", "out_of_order", "retransmission",
}

// WriteCSV exports the trace in the CSV form used by the dataset tooling.
func (t Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("mobiflow: writing CSV header: %w", err)
	}
	for _, r := range t {
		row := []string{
			strconv.FormatUint(r.Seq, 10),
			strconv.FormatInt(r.Timestamp.UnixNano(), 10),
			strconv.FormatUint(r.UEID, 10),
			r.Msg,
			r.Layer.String(),
			r.Dir.String(),
			strconv.FormatUint(uint64(r.RNTI), 10),
			strconv.FormatUint(uint64(r.TMSI), 10),
			string(r.SUPI),
			strconv.Itoa(int(r.CipherAlg)),
			strconv.Itoa(int(r.IntegAlg)),
			strconv.FormatBool(r.SecurityOn),
			strconv.Itoa(int(r.EstCause)),
			strconv.Itoa(int(r.RRCState)),
			strconv.Itoa(int(r.NASState)),
			strconv.FormatBool(r.OutOfOrder),
			strconv.FormatBool(r.Retransmission),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("mobiflow: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace exported by WriteCSV.
func ReadCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = len(csvHeader)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("mobiflow: reading CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	var tr Trace
	for i, row := range rows {
		if i == 0 {
			continue // header
		}
		rec, err := parseCSVRow(row)
		if err != nil {
			return nil, fmt.Errorf("mobiflow: CSV row %d: %w", i, err)
		}
		tr = append(tr, rec)
	}
	return tr, nil
}

func parseCSVRow(row []string) (Record, error) {
	var r Record
	var err error
	fail := func(col string, e error) (Record, error) {
		return Record{}, fmt.Errorf("column %s: %w", col, e)
	}
	if r.Seq, err = strconv.ParseUint(row[0], 10, 64); err != nil {
		return fail("seq", err)
	}
	ns, err := strconv.ParseInt(row[1], 10, 64)
	if err != nil {
		return fail("timestamp_ns", err)
	}
	r.Timestamp = time.Unix(0, ns).UTC()
	if r.UEID, err = strconv.ParseUint(row[2], 10, 64); err != nil {
		return fail("ue_id", err)
	}
	r.Msg = row[3]
	if row[4] == "NAS" {
		r.Layer = LayerNAS
	}
	if row[5] == "DL" {
		r.Dir = cell.Downlink
	}
	rnti, err := strconv.ParseUint(row[6], 10, 16)
	if err != nil {
		return fail("rnti", err)
	}
	r.RNTI = cell.RNTI(rnti)
	tmsi, err := strconv.ParseUint(row[7], 10, 32)
	if err != nil {
		return fail("s_tmsi", err)
	}
	r.TMSI = cell.TMSI(tmsi)
	r.SUPI = cell.SUPI(row[8])
	ca, err := strconv.Atoi(row[9])
	if err != nil {
		return fail("cipher_alg", err)
	}
	r.CipherAlg = cell.CipherAlg(ca)
	ia, err := strconv.Atoi(row[10])
	if err != nil {
		return fail("integrity_alg", err)
	}
	r.IntegAlg = cell.IntegAlg(ia)
	if r.SecurityOn, err = strconv.ParseBool(row[11]); err != nil {
		return fail("security_on", err)
	}
	ec, err := strconv.Atoi(row[12])
	if err != nil {
		return fail("establish_cause", err)
	}
	r.EstCause = cell.EstablishmentCause(ec)
	rs, err := strconv.Atoi(row[13])
	if err != nil {
		return fail("rrc_state", err)
	}
	r.RRCState = rrc.State(rs)
	nsState, err := strconv.Atoi(row[14])
	if err != nil {
		return fail("nas_state", err)
	}
	r.NASState = nas.State(nsState)
	if r.OutOfOrder, err = strconv.ParseBool(row[15]); err != nil {
		return fail("out_of_order", err)
	}
	if r.Retransmission, err = strconv.ParseBool(row[16]); err != nil {
		return fail("retransmission", err)
	}
	return r, nil
}
