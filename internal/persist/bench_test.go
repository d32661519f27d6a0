package persist

import (
	"crypto/hmac"
	"crypto/sha256"
	"testing"

	"overshadow/internal/mach"
)

// TestSealerMatchesFreshHMAC: a reused Sealer produces exactly the bytes of a
// freshly keyed HMAC-SHA256 truncated to MACSize, record after record, so
// the on-disk format is unchanged by reusing the MAC state.
func TestSealerMatchesFreshHMAC(t *testing.T) {
	key := SealKey(7)
	s := NewSealer(&key)
	body := make([]byte, offMAC)
	for i := 0; i < 64; i++ {
		for k := range body {
			body[k] = byte(i*31 + k)
		}
		m := hmac.New(sha256.New, key[:])
		m.Write(body)
		want := m.Sum(nil)[:MACSize]
		got := s.Seal(body)
		if !hmac.Equal(got[:], want) {
			t.Fatalf("record %d: Seal = %x, want %x", i, got, want)
		}
		if !s.Verify(body, want) {
			t.Fatalf("record %d: Verify rejected its own MAC", i)
		}
		want[0] ^= 1
		if s.Verify(body, want) {
			t.Fatalf("record %d: Verify accepted a damaged MAC", i)
		}
	}
}

// TestSealerAllocationFree pins the reason the Sealer exists: once built,
// sealing a record allocates nothing.
func TestSealerAllocationFree(t *testing.T) {
	key := SealKey(7)
	s := NewSealer(&key)
	body := make([]byte, offMAC)
	if n := testing.AllocsPerRun(100, func() { s.Seal(body) }); n != 0 {
		t.Fatalf("Seal allocates %.1f times per record, want 0", n)
	}
}

// sealSink keeps BenchmarkRecordSeal's result live.
var sealSink [MACSize]byte

// BenchmarkRecordSeal measures sealing one journal-sized record body.
func BenchmarkRecordSeal(b *testing.B) {
	key := SealKey(7)
	s := NewSealer(&key)
	body := make([]byte, offMAC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body[0] = byte(i)
		sealSink = s.Seal(body)
	}
}

// BenchmarkJournalAppend measures one metadata Put through the journal:
// encode, seal, tail-block write, and the periodic checkpoint amortized
// over its appends (default CheckpointEvery).
func BenchmarkJournalAppend(b *testing.B) {
	world := testWorld(1)
	disk := mach.NewDisk(world, 128+testBlocks)
	j, err := NewJournal(world, disk, 128, testBlocks, SealKey(7), Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := meta(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Version = uint64(i + 2)
		j.Put(pid(1, 1, uint64(i%32)), m)
	}
}
