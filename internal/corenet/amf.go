// Package corenet implements the 5G core subset behind the simulated gNB:
// an AMF (Access and Mobility Management Function) with a subscriber
// database, 5G-AKA primary authentication, NAS security-mode control, and
// GUTI/TMSI allocation. The CU relays NAS PDUs to it over NGAP
// (internal/ngap), completing the UE ↔ RAN ↔ core path of Figure 1.
package corenet

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/ngap"
)

// Subscriber is one provisioned SIM.
type Subscriber struct {
	SUPI cell.SUPI
	K    [nas.KeySize]byte
}

// amfUE is the per-UE context at the AMF.
type amfUE struct {
	ranUEID uint64
	supi    cell.SUPI
	guti    cell.GUTI
	state   nas.Machine

	// pending challenge
	rand [16]byte

	capability uint32
	cipher     cell.CipherAlg
	integ      cell.IntegAlg
}

// AMF is the core-network control function.
type AMF struct {
	mu      sync.Mutex
	subs    map[cell.SUPI]Subscriber
	byTMSI  map[cell.TMSI]cell.SUPI
	byRAN   map[uint64]*amfUE
	nextSQN uint64
	rng     *rand.Rand

	// RequireStrongSecurity refuses to select null algorithms even for
	// UEs that only advertise them (the closed-loop hardening action).
	RequireStrongSecurity bool
}

// NewAMF creates an AMF; seed drives RAND and TMSI generation.
func NewAMF(seed int64) *AMF {
	return &AMF{
		subs:   make(map[cell.SUPI]Subscriber),
		byTMSI: make(map[cell.TMSI]cell.SUPI),
		byRAN:  make(map[uint64]*amfUE),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// SetRequireStrongSecurity toggles the null-algorithm refusal at runtime
// (the closed-loop hardening action). Safe for concurrent use.
func (a *AMF) SetRequireStrongSecurity(on bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.RequireStrongSecurity = on
}

// AddSubscriber provisions a SIM.
func (a *AMF) AddSubscriber(s Subscriber) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.subs[s.SUPI] = s
}

// algorithm capability bits, matching the UE capability bitmask layout:
// bit i set = NEA_i supported, bit 8+i = NIA_i supported.
const (
	CapNEA0 = 1 << 0
	CapNEA1 = 1 << 1
	CapNEA2 = 1 << 2
	CapNEA3 = 1 << 3
	CapNIA0 = 1 << 8
	CapNIA1 = 1 << 9
	CapNIA2 = 1 << 10
	CapNIA3 = 1 << 11
)

// CapAll advertises every algorithm, the normal commodity-phone case.
const CapAll = CapNEA0 | CapNEA1 | CapNEA2 | CapNEA3 | CapNIA0 | CapNIA1 | CapNIA2 | CapNIA3

// selectAlgorithms picks the strongest pair the UE claims to support.
func selectAlgorithms(capability uint32) (cell.CipherAlg, cell.IntegAlg) {
	cipher := cell.NEA0
	for i := 3; i >= 1; i-- {
		if capability&(1<<uint(i)) != 0 {
			cipher = cell.CipherAlg(i)
			break
		}
	}
	integ := cell.NIA0
	for i := 3; i >= 1; i-- {
		if capability&(1<<uint(8+i)) != 0 {
			integ = cell.IntegAlg(i)
			break
		}
	}
	return cipher, integ
}

// HandleNGAP processes one uplink NGAP message and returns the downlink
// NGAP messages the AMF emits in response (possibly none).
func (a *AMF) HandleNGAP(msg *ngap.Message) ([]*ngap.Message, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	switch msg.Type {
	case ngap.TypeInitialUEMessage, ngap.TypeUplinkNASTransport:
		nasMsg, err := nas.Decode(msg.NASPDU)
		if err != nil {
			return nil, fmt.Errorf("corenet: NAS in %s: %w", msg.Type, err)
		}
		return a.handleNAS(msg.RANUEID, nasMsg)
	default:
		return nil, fmt.Errorf("corenet: unexpected NGAP %s", msg.Type)
	}
}

func (a *AMF) ue(ranUEID uint64) *amfUE {
	u, ok := a.byRAN[ranUEID]
	if !ok {
		u = &amfUE{ranUEID: ranUEID}
		a.byRAN[ranUEID] = u
	}
	return u
}

// ReleaseUE drops the AMF context for a RAN UE ID.
func (a *AMF) ReleaseUE(ranUEID uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.byRAN, ranUEID)
}

func (a *AMF) downNAS(u *amfUE, m nas.Message) *ngap.Message {
	return &ngap.Message{
		Type:    ngap.TypeDownlinkNASTransport,
		RANUEID: u.ranUEID,
		NASPDU:  nas.Encode(m),
	}
}

func (a *AMF) handleNAS(ranUEID uint64, m nas.Message) ([]*ngap.Message, error) {
	u := a.ue(ranUEID)
	u.state.Observe(m) // track even when out of order; AMF is tolerant

	switch msg := m.(type) {
	case *nas.RegistrationRequest:
		u.capability = msg.Capability
		switch msg.Identity.Type {
		case nas.IdentitySUCI:
			supi, ok := a.resolveSUCI(msg.Identity.SUCI)
			if !ok {
				return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseIllegalUE})}, nil
			}
			u.supi = supi
			return a.challenge(u)
		case nas.IdentityGUTI:
			supi, ok := a.byTMSI[msg.Identity.GUTI.TMSI]
			if !ok {
				// Unknown temporary identity: ask for the permanent one.
				return []*ngap.Message{a.downNAS(u, &nas.IdentityRequest{Requested: nas.IdentitySUCI})}, nil
			}
			u.supi = supi
			return a.challenge(u)
		default:
			return []*ngap.Message{a.downNAS(u, &nas.IdentityRequest{Requested: nas.IdentitySUCI})}, nil
		}

	case *nas.IdentityResponse:
		if msg.Identity.Type != nas.IdentitySUCI {
			return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseIllegalUE})}, nil
		}
		supi, ok := a.resolveSUCI(msg.Identity.SUCI)
		if !ok {
			return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseIllegalUE})}, nil
		}
		u.supi = supi
		return a.challenge(u)

	case *nas.AuthenticationResponse:
		sub, ok := a.subs[u.supi]
		if !ok || !nas.VerifyRES(sub.K, u.rand, msg.RES) {
			return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseIllegalUE})}, nil
		}
		cipher, integ := selectAlgorithms(u.capability)
		if a.RequireStrongSecurity && (cipher.Null() || integ.Null()) {
			return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseSecurityModeRejected})}, nil
		}
		u.cipher, u.integ = cipher, integ
		return []*ngap.Message{a.downNAS(u, &nas.SecurityModeCommand{CipherAlg: cipher, IntegAlg: integ})}, nil

	case *nas.AuthenticationFailure:
		return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseIllegalUE})}, nil

	case *nas.SecurityModeComplete:
		guti := a.allocateGUTI(u.supi)
		u.guti = guti
		return []*ngap.Message{
			{Type: ngap.TypeInitialContextSetupRequest, RANUEID: u.ranUEID},
			a.downNAS(u, &nas.RegistrationAccept{GUTI: guti}),
		}, nil

	case *nas.SecurityModeReject:
		return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseSecurityModeRejected})}, nil

	case *nas.RegistrationComplete:
		return nil, nil

	case *nas.ServiceRequest:
		if _, ok := a.byTMSI[msg.TMSI]; !ok {
			return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseIllegalUE})}, nil
		}
		return []*ngap.Message{a.downNAS(u, &nas.ServiceAccept{})}, nil

	case *nas.DeregistrationRequest:
		out := []*ngap.Message{
			a.downNAS(u, &nas.DeregistrationAccept{}),
			{Type: ngap.TypeUEContextReleaseCommand, RANUEID: u.ranUEID, Cause: "deregistration"},
		}
		delete(a.byRAN, ranUEID)
		return out, nil

	default:
		return nil, fmt.Errorf("corenet: unexpected uplink NAS %s", m.Type())
	}
}

// challenge issues a fresh 5G-AKA challenge for the UE's SUPI.
func (a *AMF) challenge(u *amfUE) ([]*ngap.Message, error) {
	sub, ok := a.subs[u.supi]
	if !ok {
		return []*ngap.Message{a.downNAS(u, &nas.RegistrationReject{Cause: nas.CauseIllegalUE})}, nil
	}
	a.rng.Read(u.rand[:])
	a.nextSQN++
	autn := nas.Challenge(sub.K, u.rand, a.nextSQN)
	return []*ngap.Message{a.downNAS(u, &nas.AuthenticationRequest{NgKSI: 0, RAND: u.rand, AUTN: autn})}, nil
}

// resolveSUCI de-conceals a SUCI. Only the null scheme is resolvable in
// this model (non-null schemes would require the home-network key).
func (a *AMF) resolveSUCI(suci cell.SUCI) (cell.SUPI, bool) {
	if !suci.NullScheme() {
		return "", false
	}
	supi := cell.SUPI("imsi-" + suci.PLMN.MCC + suci.PLMN.MNC + suci.MSIN)
	if strings.Contains(string(supi), "*") {
		return "", false
	}
	_, ok := a.subs[supi]
	return supi, ok
}

// allocateGUTI assigns a fresh unique TMSI for a SUPI.
func (a *AMF) allocateGUTI(supi cell.SUPI) cell.GUTI {
	// Drop any previous binding for this SUPI.
	for tmsi, owner := range a.byTMSI {
		if owner == supi {
			delete(a.byTMSI, tmsi)
		}
	}
	var tmsi cell.TMSI
	for {
		tmsi = cell.TMSI(a.rng.Uint32())
		if tmsi == cell.InvalidTMSI {
			continue
		}
		if _, taken := a.byTMSI[tmsi]; !taken {
			break
		}
	}
	a.byTMSI[tmsi] = supi
	return cell.GUTI{PLMN: cell.TestPLMN, AMFSetID: 1, TMSI: tmsi}
}
