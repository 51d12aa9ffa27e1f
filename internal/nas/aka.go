package nas

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
)

// This file implements a functional model of 5G-AKA (TS 33.501 §6.1.3.2)
// sufficient for the simulator: the home network and UE share a long-term
// key K; the network issues a (RAND, AUTN) challenge; the UE derives RES*
// and the network verifies it. The MILENAGE/TUAK kernels are replaced by
// HMAC-SHA-256 constructions — the protocol flow, message contents, and
// failure modes (MAC failure, synch failure, wrong RES) are what the
// attacks and telemetry exercise, not the cipher kernel itself.

// KeySize is the size of the long-term subscriber key K.
const KeySize = 16

// RESSize is the size of the RES* authentication response.
const RESSize = 16

// Challenge computes the (RAND-dependent) AUTN a network with key k and
// sequence number sqn includes in an AuthenticationRequest.
func Challenge(k [KeySize]byte, rand [16]byte, sqn uint64) (autn [16]byte) {
	mac := hmac.New(sha256.New, k[:])
	mac.Write([]byte("autn"))
	mac.Write(rand[:])
	var sqnb [8]byte
	binary.BigEndian.PutUint64(sqnb[:], sqn)
	mac.Write(sqnb[:])
	copy(autn[:], mac.Sum(nil))
	return autn
}

// DeriveRES computes RES*, the UE's response to a (RAND) challenge under
// key k.
func DeriveRES(k [KeySize]byte, rand [16]byte) []byte {
	mac := hmac.New(sha256.New, k[:])
	mac.Write([]byte("res*"))
	mac.Write(rand[:])
	return mac.Sum(nil)[:RESSize]
}

// VerifyRES lets the network check the UE's response.
func VerifyRES(k [KeySize]byte, rand [16]byte, res []byte) bool {
	return hmac.Equal(DeriveRES(k, rand), res)
}
