package chip

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Fingerprint returns a stable content hash of the spec: every
// result-affecting field (chip geometry, variant options, workload
// profile, operation counts, seed, horizon, fault plan and sampling) feeds
// a SHA-256 over the spec's canonical JSON encoding. Two specs compare
// equal exactly when their fingerprints do, which is what lets a result
// cache return a stored Results for a re-submitted spec without
// re-simulating it.
//
// Fields tagged json:"-" are excluded because they cannot change a
// simulated number: the observers (OnSample, RecordTrace) only watch the
// run, and the engine switches (DenseKernel, core.Options.NoPool) only
// choose how the same machine is stepped and allocated, which the golden
// and differential suites check bit for bit. Fields added to Spec in the
// future are picked up automatically because the hash covers the full
// JSON encoding; the mutation-coverage test in fingerprint_test.go keeps
// that claim honest.
func (s Spec) Fingerprint() string {
	s.OnSample = nil // observers never reach the encoder
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain exported data; Marshal can only fail if a future
		// field breaks that contract, which the stability test catches.
		panic(fmt.Sprintf("chip: spec not fingerprintable: %v", err))
	}
	return FingerprintOf(b)
}

// FingerprintOf returns the fingerprint of a spec whose canonical JSON
// encoding (json.Marshal of the spec) is b, without decoding it: the
// service recognises a resubmitted spec by the bytes it arrives in.
func FingerprintOf(b []byte) string {
	sum := sha256.Sum256(b)
	return "spec-" + hex.EncodeToString(sum[:16])
}
