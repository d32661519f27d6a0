package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
)

// mix hashes a stream name and a few words (the run's seed, a key, a
// version, a pass index) into one 64-bit value.
func mix(stream string, words ...uint64) uint64 {
	h := sha256.New()
	h.Write([]byte(stream))
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return binary.LittleEndian.Uint64(h.Sum(nil))
}

// newRNG returns the generator of one named input stream. Every input the
// benchmark generates comes from one, so a seed names the inputs exactly
// and nearby seeds still start unrelated streams. It is the standard
// library's PCG rather than sim.RNG so that the CPU profile charges input
// generation to the benchmark, not to the simulator's sim layer.
func newRNG(stream string, words ...uint64) *rand.Rand {
	return rand.New(rand.NewPCG(mix(stream, words...), 0))
}

// fill writes random bytes from r into p.
func fill(r *rand.Rand, p []byte) {
	var b [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(b[:], r.Uint64())
		copy(p[i:], b[:])
	}
}
