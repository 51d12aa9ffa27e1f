// Package gnb simulates an O-RAN gNodeB: the O-DU (RNTI allocation, RRC
// lower procedures), the O-CU (RRC/NAS relay, per-UE contexts, F1/NG
// interworking), and the RIC agent that extracts MOBIFLOW telemetry and
// serves the E2 interface (Figure 3 of the paper).
//
// The gNB processes each uplink RRC PDU synchronously through
// DU → CU → AMF and queues resulting downlink PDUs on the UE's link,
// which keeps multi-UE scenarios deterministic under a virtual clock
// while remaining safe for concurrent UE goroutines.
package gnb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/f1ap"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/ngap"
	"github.com/6g-xsec/xsec/internal/pcaplite"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// Errors returned by gNB operations.
var (
	ErrReleased = errors.New("gnb: UE context released")
	ErrNoSuchUE = errors.New("gnb: no such UE context")
)

// Config configures a simulated gNB.
type Config struct {
	// NodeID is the E2 node identity (e.g. "gnb-001").
	NodeID string
	// AMF is the core-network control function. Required.
	AMF *corenet.AMF
	// Clock stamps telemetry; defaults to time.Now.
	Clock func() time.Time
	// Capture, when non-nil, receives F1AP/NGAP PDUs (the instrumented
	// pcap stream of §4).
	Capture *pcaplite.Writer
	// DLBuffer is the per-UE downlink queue depth (default 64).
	DLBuffer int
	// FirstRNTI seeds C-RNTI allocation (default 0x4601, as OAI).
	FirstRNTI cell.RNTI
	// Batch tunes how the E2 agent coalesces telemetry into RIC
	// Indications; the zero value keeps the defaults (see BatchPolicy).
	Batch BatchPolicy
}

// GNB is the simulated gNodeB.
type GNB struct {
	cfg Config

	mu        sync.Mutex
	extractor *mobiflow.Extractor
	nextRNTI  cell.RNTI
	nextUEID  uint64
	ues       map[uint64]*ueCtx
	byRNTI    map[cell.RNTI]uint64
	records   mobiflow.Trace

	blockedTMSI map[cell.TMSI]bool
}

// ueCtx is the CU-side context for one attached UE.
type ueCtx struct {
	ueID     uint64
	rnti     cell.RNTI
	dl       chan rrc.Message
	lastUL   []byte
	pendNAS  [][]byte // NAS PDUs awaiting the post-security reconfiguration
	sentIUE  bool     // InitialUEMessage already sent over NG
	released bool

	// negotiated NAS security algorithms, mirrored into the AS
	// security-mode command
	cipher cell.CipherAlg
	integ  cell.IntegAlg
}

// New creates a gNB.
func New(cfg Config) (*GNB, error) {
	if cfg.AMF == nil {
		return nil, fmt.Errorf("gnb: Config.AMF is required")
	}
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("gnb: Config.NodeID is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.DLBuffer == 0 {
		cfg.DLBuffer = 64
	}
	if cfg.FirstRNTI == 0 {
		cfg.FirstRNTI = 0x4601
	}
	g := &GNB{
		cfg:         cfg,
		extractor:   mobiflow.NewExtractor(cfg.Clock),
		nextRNTI:    cfg.FirstRNTI,
		ues:         make(map[uint64]*ueCtx),
		byRNTI:      make(map[cell.RNTI]uint64),
		blockedTMSI: make(map[cell.TMSI]bool),
	}
	return g, nil
}

// NodeID returns the configured E2 node identity.
func (g *GNB) NodeID() string { return g.cfg.NodeID }

// Link is a UE's Uu connection to the gNB.
type Link struct {
	g   *GNB
	ctx *ueCtx
}

// Attach performs random access: the DU allocates a C-RNTI and the CU
// creates a UE context. It models the RACH procedure preceding
// RRCSetupRequest.
func (g *GNB) Attach() *Link {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextUEID++
	// Allocate the next free RNTI, skipping reserved values.
	for {
		if g.nextRNTI == 0 || g.nextRNTI == 0xFFFF {
			g.nextRNTI = g.cfg.FirstRNTI
		}
		if _, used := g.byRNTI[g.nextRNTI]; !used {
			break
		}
		g.nextRNTI++
	}
	ctx := &ueCtx{
		ueID: g.nextUEID,
		rnti: g.nextRNTI,
		dl:   make(chan rrc.Message, g.cfg.DLBuffer),
	}
	g.nextRNTI++
	g.ues[ctx.ueID] = ctx
	g.byRNTI[ctx.rnti] = ctx.ueID
	return &Link{g: g, ctx: ctx}
}

// UEID returns the CU-local UE context identifier.
func (l *Link) UEID() uint64 { return l.ctx.ueID }

// RNTI returns the allocated C-RNTI.
func (l *Link) RNTI() cell.RNTI { return l.ctx.rnti }

// SendRRC transmits one uplink RRC message. Processing is synchronous:
// when it returns, all resulting downlink messages are queued on the link.
func (l *Link) SendRRC(m rrc.Message) error {
	l.g.mu.Lock()
	defer l.g.mu.Unlock()
	if l.ctx.released {
		return ErrReleased
	}
	return l.g.handleUplink(l.ctx, m)
}

// TryRecv returns the next queued downlink message, if any.
func (l *Link) TryRecv() (rrc.Message, bool) {
	select {
	case m, ok := <-l.ctx.dl:
		return m, ok
	default:
		return nil, false
	}
}

// Recv blocks for the next downlink message until timeout.
func (l *Link) Recv(timeout time.Duration) (rrc.Message, error) {
	select {
	case m, ok := <-l.ctx.dl:
		if !ok {
			return nil, ErrReleased
		}
		return m, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("gnb: downlink receive: %w", errTimeout)
	}
}

var errTimeout = errors.New("timeout")

// Abandon drops the UE side of the link without any signalling — the
// behavior of a flooding attacker or a UE losing radio contact. The CU
// context remains until released by the network.
func (l *Link) Abandon() {}

// Records returns a copy of the accumulated telemetry.
func (g *GNB) Records() mobiflow.Trace {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(mobiflow.Trace, len(g.records))
	copy(out, g.records)
	return out
}

// DrainRecords returns telemetry accumulated since the previous drain and
// clears the buffer; the RIC agent calls this per report interval.
func (g *GNB) DrainRecords() mobiflow.Trace {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.records
	g.records = nil
	return out
}

// DrainRecordsInto appends the accumulated telemetry to buf and returns
// the extended slice, truncating the internal buffer in place. It is the
// buffer-reusing form of DrainRecords for the batching report loop:
// records are plain values (no shared byte slices), so both sides keep
// their own backing arrays and the steady state allocates nothing.
func (g *GNB) DrainRecordsInto(buf mobiflow.Trace) mobiflow.Trace {
	g.mu.Lock()
	defer g.mu.Unlock()
	buf = append(buf, g.records...)
	g.records = g.records[:0]
	return buf
}

// InjectTelemetry appends pre-built records directly to the telemetry
// buffer, bypassing the RAN procedures. The benchmark's replay generator
// uses it to drive the E2 report path at controlled record rates and UE
// spreads.
func (g *GNB) InjectTelemetry(tr mobiflow.Trace) {
	g.mu.Lock()
	g.records = append(g.records, tr...)
	g.mu.Unlock()
}

// ActiveUEs reports the number of live UE contexts.
func (g *GNB) ActiveUEs() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.ues)
}

func (g *GNB) record(r mobiflow.Record) {
	g.records = append(g.records, r)
}

func (g *GNB) capture(iface pcaplite.Interface, payload []byte) {
	if g.cfg.Capture == nil {
		return
	}
	// Capture failures must not disturb the data plane; the writer's
	// error will surface at Flush time in the dataset tooling.
	_ = g.cfg.Capture.Write(pcaplite.Packet{Timestamp: g.cfg.Clock(), Iface: iface, Payload: payload})
}

// sendDL queues a downlink RRC message, recording it and capturing the
// F1AP DL transfer. A full queue models radio loss: the PDU is dropped.
func (g *GNB) sendDL(ctx *ueCtx, m rrc.Message) {
	encoded := rrc.Encode(m)
	g.capture(pcaplite.IfF1AP, f1ap.Encode(&f1ap.Message{
		Type: f1ap.TypeDLRRCTransfer, DUUEID: ctx.ueID, CUUEID: ctx.ueID,
		RNTI: ctx.rnti, RRCContainer: encoded,
	}))
	if recordableRRC(m.Type()) {
		g.record(g.extractor.OnRRC(ctx.ueID, ctx.rnti, m, false))
	}
	select {
	case ctx.dl <- m:
	default: // queue full: radio loss
	}
}

// recordableRRC reports whether an RRC message type is recorded as an RRC
// telemetry entry. Information-transfer wrappers are pure NAS transport;
// their payload is recorded as a NAS entry instead (Table 1 separates the
// RRC and NAS message categories).
func recordableRRC(t rrc.MsgType) bool {
	switch t {
	case rrc.TypeULInformationTransfer, rrc.TypeDLInformationTransfer:
		return false
	}
	return true
}

// handleUplink runs the CU logic for one uplink RRC PDU. Caller holds g.mu.
func (g *GNB) handleUplink(ctx *ueCtx, m rrc.Message) error {
	encoded := rrc.Encode(m)
	f1Type := f1ap.TypeULRRCTransfer
	if m.Type() == rrc.TypeSetupRequest {
		f1Type = f1ap.TypeInitialULRRCTransfer
	}
	g.capture(pcaplite.IfF1AP, f1ap.Encode(&f1ap.Message{
		Type: f1Type, DUUEID: ctx.ueID, CUUEID: ctx.ueID,
		RNTI: ctx.rnti, RRCContainer: encoded,
	}))

	retx := ctx.lastUL != nil && bytes.Equal(ctx.lastUL, encoded)
	ctx.lastUL = encoded

	if recordableRRC(m.Type()) {
		g.record(g.extractor.OnRRC(ctx.ueID, ctx.rnti, m, retx))
	}
	if retx {
		// Duplicate delivery: telemetry records it (including any NAS
		// payload — retransmissions are the paper's main benign-FP
		// source), but the CU suppresses duplicate protocol handling.
		var dup []byte
		switch msg := m.(type) {
		case *rrc.ULInformationTransfer:
			dup = msg.NASPDU
		case *rrc.SetupComplete:
			dup = msg.NASPDU
		}
		if len(dup) > 0 {
			if nm, err := nas.Decode(dup); err == nil {
				g.record(g.extractor.OnNAS(ctx.ueID, nm, true))
			}
		}
		return nil
	}

	switch msg := m.(type) {
	case *rrc.SetupRequest:
		if msg.Identity.Kind == rrc.IdentityTMSI && g.blockedTMSI[msg.Identity.TMSI] {
			g.sendDL(ctx, &rrc.Reject{WaitTime: 16})
			g.releaseLocked(ctx, "blocked TMSI")
			return nil
		}
		g.sendDL(ctx, &rrc.Setup{TransactionID: 0, SRBCount: 1})

	case *rrc.SetupComplete:
		if len(msg.NASPDU) > 0 {
			return g.uplinkNAS(ctx, msg.NASPDU, retx)
		}

	case *rrc.ULInformationTransfer:
		if len(msg.NASPDU) > 0 {
			return g.uplinkNAS(ctx, msg.NASPDU, retx)
		}

	case *rrc.SecurityModeComplete:
		// AS security is up: deliver the held NAS (registration accept)
		// inside the reconfiguration, per the standard call flow.
		var nasPDU []byte
		if len(ctx.pendNAS) > 0 {
			nasPDU = ctx.pendNAS[0]
			ctx.pendNAS = ctx.pendNAS[1:]
		}
		reconf := &rrc.Reconfiguration{TransactionID: 1, NASPDU: nasPDU}
		g.sendDL(ctx, reconf)
		if len(nasPDU) > 0 {
			if nm, err := nas.Decode(nasPDU); err == nil {
				g.record(g.extractor.OnNAS(ctx.ueID, nm, false))
			}
		}

	case *rrc.SecurityModeFailure, *rrc.ReconfigurationComplete:
		// No CU response required.

	case *rrc.ReestablishmentRequest:
		g.sendDL(ctx, &rrc.Reestablishment{TransactionID: 0})
	}
	return nil
}

// uplinkNAS relays an uplink NAS PDU to the AMF over NG and processes the
// AMF's downlink responses. Caller holds g.mu.
func (g *GNB) uplinkNAS(ctx *ueCtx, nasPDU []byte, retx bool) error {
	nasMsg, err := nas.Decode(nasPDU)
	if err != nil {
		// Undecodable NAS: telemetry cannot represent it, and the AMF
		// would reject it; drop with an error for the caller.
		return fmt.Errorf("gnb: uplink NAS: %w", err)
	}
	g.record(g.extractor.OnNAS(ctx.ueID, nasMsg, retx))

	ngType := ngap.TypeUplinkNASTransport
	if !ctx.sentIUE {
		ngType = ngap.TypeInitialUEMessage
		ctx.sentIUE = true
	}
	up := &ngap.Message{Type: ngType, RANUEID: ctx.ueID, NASPDU: nasPDU}
	g.capture(pcaplite.IfNGAP, ngap.Encode(up))

	responses, err := g.cfg.AMF.HandleNGAP(up)
	if err != nil {
		return fmt.Errorf("gnb: AMF: %w", err)
	}
	for _, resp := range responses {
		g.capture(pcaplite.IfNGAP, ngap.Encode(resp))
		g.handleNGDown(ctx, resp)
	}
	return nil
}

// handleNGDown processes one AMF→CU message. Caller holds g.mu.
func (g *GNB) handleNGDown(ctx *ueCtx, m *ngap.Message) {
	switch m.Type {
	case ngap.TypeDownlinkNASTransport:
		nasMsg, err := nas.Decode(m.NASPDU)
		if err != nil {
			return
		}
		switch nm := nasMsg.(type) {
		case *nas.RegistrationAccept:
			// Held until AS security completes; it is recorded when
			// actually transmitted inside the reconfiguration.
			ctx.pendNAS = append(ctx.pendNAS, m.NASPDU)
			return
		case *nas.SecurityModeCommand:
			ctx.cipher, ctx.integ = nm.CipherAlg, nm.IntegAlg
		}
		g.record(g.extractor.OnNAS(ctx.ueID, nasMsg, false))
		g.sendDL(ctx, &rrc.DLInformationTransfer{NASPDU: m.NASPDU})

	case ngap.TypeInitialContextSetupRequest:
		// Activate AS security with the NAS-selected algorithms.
		g.sendDL(ctx, &rrc.SecurityModeCommand{TransactionID: 1, CipherAlg: ctx.cipher, IntegAlg: ctx.integ})
		resp := &ngap.Message{Type: ngap.TypeInitialContextSetupResponse, RANUEID: ctx.ueID, AMFUEID: m.AMFUEID}
		g.capture(pcaplite.IfNGAP, ngap.Encode(resp))

	case ngap.TypeUEContextReleaseCommand:
		g.releaseLocked(ctx, m.Cause)
		resp := &ngap.Message{Type: ngap.TypeUEContextReleaseComplete, RANUEID: ctx.ueID, AMFUEID: m.AMFUEID}
		g.capture(pcaplite.IfNGAP, ngap.Encode(resp))
	}
}

// releaseLocked tears the UE context down: RRC Release downlink, context
// removal, AMF release. Caller holds g.mu.
func (g *GNB) releaseLocked(ctx *ueCtx, cause string) {
	if ctx.released {
		return
	}
	rel := &rrc.Release{Cause: rrc.ReleaseDeregistration}
	if cause == "blocked TMSI" {
		rel.Cause = rrc.ReleaseOther
	}
	g.sendDL(ctx, rel)
	ctx.released = true
	close(ctx.dl)
	delete(g.ues, ctx.ueID)
	delete(g.byRNTI, ctx.rnti)
	g.extractor.ReleaseUE(ctx.ueID)
	g.cfg.AMF.ReleaseUE(ctx.ueID)
}

// ReleaseUE releases a UE context by ID (used by RIC control actions).
func (g *GNB) ReleaseUE(ueID uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	ctx, ok := g.ues[ueID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchUE, ueID)
	}
	g.releaseLocked(ctx, "ric control")
	return nil
}

// BlockTMSI denies future setup requests presenting the given TMSI (RIC
// control action against Blind DoS). Blocking an already-blocked TMSI is
// a no-op, so duplicate controls are idempotent.
func (g *GNB) BlockTMSI(tmsi cell.TMSI) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blockedTMSI[tmsi] = true
}

// UnblockTMSI lifts a BlockTMSI entry, restoring attach service for the
// identity (the mitigation engine's TTL rollback). Unblocking a TMSI
// that is not blocked is a no-op.
func (g *GNB) UnblockTMSI(tmsi cell.TMSI) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.blockedTMSI, tmsi)
}

// BlockedTMSIs reports how many temporary identities are currently
// denied service.
func (g *GNB) BlockedTMSIs() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.blockedTMSI)
}

// RequireStrongSecurity forwards the hardening control to the core.
func (g *GNB) RequireStrongSecurity(on bool) {
	g.cfg.AMF.SetRequireStrongSecurity(on)
}
