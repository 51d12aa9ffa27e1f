package mobiflow

import (
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// Extractor is the telemetry-extraction engine embedded in the gNB's RIC
// agent. It consumes decoded RRC and NAS control messages per UE context,
// maintains the protocol state and identity bindings the telemetry schema
// requires, and emits one Record per message — "the RIC agent at the RAN
// data plane extracts, encodes, and reports the telemetry" (§3.1).
//
// Extractor is safe for concurrent use; the gNB may process UEs on
// separate goroutines.
type Extractor struct {
	clock func() time.Time

	mu  sync.Mutex
	seq uint64
	ues map[uint64]*ueView
}

// ueView is the per-UE state snapshot that fills the parameter set K.
type ueView struct {
	rnti       cell.RNTI
	tmsi       cell.TMSI
	supi       cell.SUPI
	cipher     cell.CipherAlg
	integ      cell.IntegAlg
	securityOn bool
	estCause   cell.EstablishmentCause
	rrcM       rrc.Machine
	nasM       nas.Machine
}

// NewExtractor returns an Extractor stamping records with clock (pass
// time.Now in production; tests pass a fake clock for determinism).
func NewExtractor(clock func() time.Time) *Extractor {
	return &Extractor{clock: clock, ues: make(map[uint64]*ueView)}
}

func (x *Extractor) view(ueID uint64) *ueView {
	v, ok := x.ues[ueID]
	if !ok {
		v = &ueView{}
		x.ues[ueID] = v
	}
	return v
}

// OnRRC records an RRC message observed on UE context ueID carried on
// rnti. retransmission marks duplicates detected at lower layers.
func (x *Extractor) OnRRC(ueID uint64, rnti cell.RNTI, m rrc.Message, retransmission bool) Record {
	x.mu.Lock()
	defer x.mu.Unlock()
	v := x.view(ueID)
	v.rnti = rnti

	switch msg := m.(type) {
	case *rrc.SetupRequest:
		v.estCause = msg.Cause
		if msg.Identity.Kind == rrc.IdentityTMSI {
			v.tmsi = msg.Identity.TMSI
		}
	case *rrc.SecurityModeCommand:
		// AS security algorithms; NAS SMC normally sets the same pair
		// first, but record whichever the UE actually employs.
		v.cipher = msg.CipherAlg
		v.integ = msg.IntegAlg
	}
	err := v.rrcM.Observe(m)
	// A duplicate of an already-accepted message is radio noise, not a
	// protocol violation; only first deliveries can be out of order.
	ooo := err != nil && !retransmission
	return x.emit(v, ueID, m.Type().String(), LayerRRC, m.Direction(), ooo, retransmission)
}

// OnNAS records a NAS message observed on UE context ueID.
func (x *Extractor) OnNAS(ueID uint64, m nas.Message, retransmission bool) Record {
	x.mu.Lock()
	defer x.mu.Unlock()
	v := x.view(ueID)

	switch msg := m.(type) {
	case *nas.RegistrationRequest:
		switch msg.Identity.Type {
		case nas.IdentityGUTI:
			v.tmsi = msg.Identity.GUTI.TMSI
		case nas.IdentitySUCI:
			x.noteSUCI(v, msg.Identity.SUCI)
		}
	case *nas.RegistrationAccept:
		v.tmsi = msg.GUTI.TMSI
	case *nas.SecurityModeCommand:
		v.cipher = msg.CipherAlg
		v.integ = msg.IntegAlg
	case *nas.SecurityModeComplete:
		v.securityOn = true
	case *nas.IdentityResponse:
		if msg.Identity.Type == nas.IdentitySUCI {
			x.noteSUCI(v, msg.Identity.SUCI)
		}
	case *nas.ServiceRequest:
		v.tmsi = msg.TMSI
	}
	err := v.nasM.Observe(m)
	ooo := err != nil && !retransmission
	return x.emit(v, ueID, m.Type().String(), LayerNAS, m.Direction(), ooo, retransmission)
}

// noteSUCI records a plaintext permanent identity when the SUCI uses the
// null protection scheme and NAS security is not yet active — the exposure
// identity-extraction attacks harvest.
func (x *Extractor) noteSUCI(v *ueView, suci cell.SUCI) {
	if suci.NullScheme() && !v.securityOn {
		v.supi = cell.SUPI("imsi-" + suci.PLMN.MCC + suci.PLMN.MNC + suci.MSIN)
	}
}

func (x *Extractor) emit(v *ueView, ueID uint64, msg string, layer Layer, dir cell.Direction, outOfOrder, retx bool) Record {
	x.seq++
	return Record{
		Seq:            x.seq,
		Timestamp:      x.clock(),
		UEID:           ueID,
		Msg:            msg,
		Layer:          layer,
		Dir:            dir,
		RNTI:           v.rnti,
		TMSI:           v.tmsi,
		SUPI:           v.supi,
		CipherAlg:      v.cipher,
		IntegAlg:       v.integ,
		SecurityOn:     v.securityOn,
		EstCause:       v.estCause,
		RRCState:       v.rrcM.State(),
		NASState:       v.nasM.State(),
		OutOfOrder:     outOfOrder,
		Retransmission: retx,
	}
}

// ReleaseUE drops the state for a UE context (after RRC release or
// context teardown). Subsequent messages on the same ID start fresh.
func (x *Extractor) ReleaseUE(ueID uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	delete(x.ues, ueID)
}
