package vmm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
)

// wordCase prepares a rig for one word access at wordVPN (and the page after
// it, for words that cross). readErr and writeErr name the error type the
// access must fail with ("" for success), so a case cannot silently stop
// reaching its branch.
type wordCase struct {
	name              string
	readErr, writeErr string
	setup             func(r *testRig)
}

const wordVPN = 20

var wordCases = []wordCase{
	{"tlb hit", "", "", func(r *testRig) {
		mapWordPages(r, mmu.FlagWritable)
		primeWordPages(r)
	}},
	{"tlb miss, shadow hit", "", "", func(r *testRig) {
		mapWordPages(r, mmu.FlagWritable)
		primeWordPages(r)
		r.v.tlbInvalidatePage(wordVPN)
		r.v.tlbInvalidatePage(wordVPN + 1)
	}},
	{"hidden fault", "", "", func(r *testRig) { mapWordPages(r, mmu.FlagWritable) }},
	{"guest not present", "*mmu.Fault", "*mmu.Fault", func(r *testRig) {}},
	{"read-only tlb entry", "", "*mmu.Fault", func(r *testRig) {
		// A write finds a read-only TLB entry: the COW upgrade path drops it
		// everywhere and faults to the guest.
		mapWordPages(r, 0)
		primeWordPages(r)
	}},
	{"quarantined domain", "*vmm.SecViolation", "*vmm.SecViolation", func(r *testRig) {
		r.cloakSetup(wordVPN, 2)
		mapWordPages(r, mmu.FlagWritable)
		primeWordPages(r)
		d := r.as.Domain()
		r.v.quarantine(d, Event{Kind: EventIntegrityViolation, Domain: d})
	}},
	{"cloaked first touch", "", "", func(r *testRig) {
		r.cloakSetup(wordVPN, 2)
		mapWordPages(r, mmu.FlagWritable)
	}},
	{"cloaked decrypt", "", "", func(r *testRig) {
		r.cloakSetup(wordVPN, 2)
		mapWordPages(r, mmu.FlagWritable)
		for vpn := uint64(wordVPN); vpn <= wordVPN+1; vpn++ {
			page := bytes.Repeat([]byte{byte(vpn)}, mach.PageSize)
			binary.LittleEndian.PutUint64(page[0x128:], 0x0123456789abcdef*vpn)
			if err := r.appWrite(vpn, page); err != nil {
				r.t.Fatal(err)
			}
			if _, err := r.sysRead(vpn, 8); err != nil {
				r.t.Fatal(err)
			}
		}
	}},
}

// mapWordPages maps wordVPN and the page after it onto guest frames 3 and 4,
// user-accessible with the given extra flags.
func mapWordPages(r *testRig, extra mmu.Flags) {
	for i := uint64(0); i < 2; i++ {
		r.as.guestPT.Map(wordVPN+i, mmu.PTE{PN: 3 + i, Flags: mmu.FlagPresent | mmu.FlagUser | extra})
	}
}

// primeWordPages reads both word pages once through the app view, filling
// the shadow tables and the TLB.
func primeWordPages(r *testRig) {
	for i := uint64(0); i < 2; i++ {
		if _, err := r.appRead(wordVPN+i, 8); err != nil {
			r.t.Fatal(err)
		}
	}
}

// wordState is everything a word access may change that the simulation
// observes.
type wordState struct {
	now      uint64
	counters string
	events   int
	tlbLen   int
	guestPTE [2]mmu.PTE
	memory   []byte
}

func observeWord(r *testRig) wordState {
	s := wordState{
		now:      uint64(r.w.Now()),
		counters: r.w.Stats.String(),
		events:   len(r.v.events),
		tlbLen:   r.v.tlbs[0].Len(),
	}
	for i := range s.guestPTE {
		s.guestPTE[i] = r.as.guestPT.Lookup(wordVPN + uint64(i))
	}
	for g := 0; g < r.v.GuestPages(); g++ {
		s.memory = append(s.memory, r.v.frame(mach.GPPN(g))...)
	}
	return s
}

func describeErr(err error) string { return fmt.Sprintf("%T %v", err, err) }

func errType(err error) string {
	if err == nil {
		return ""
	}
	return fmt.Sprintf("%T", err)
}

// TestWordPathMatchesByteCopy checks VMM.Load64 and Store64 against an
// 8-byte ReadVirt and WriteVirt on twin rigs, in every translation outcome
// and for a word inside a page and one that crosses into the next: same
// value, same error, same clock, counters, audit log length, TLB occupancy,
// guest accessed/dirty bits and machine memory.
func TestWordPathMatchesByteCopy(t *testing.T) {
	const val = 0x1122334455667788
	for _, c := range wordCases {
		for _, off := range []mach.Addr{0x128, mach.PageSize - 4} {
			for _, write := range []bool{false, true} {
				name := fmt.Sprintf("%s/off %#x/write %v", c.name, off, write)
				word, bytewise := newRig(t, Options{}), newRig(t, Options{})
				c.setup(word)
				c.setup(bytewise)
				va := wordVPN*mach.PageSize + off
				var got, want uint64
				var gotErr, wantErr error
				buf := make([]byte, 8)
				if write {
					gotErr = word.v.Store64(word.as, ViewApp, va, val, true)
					binary.LittleEndian.PutUint64(buf, val)
					wantErr = bytewise.v.WriteVirt(bytewise.as, ViewApp, va, buf, true)
				} else {
					got, gotErr = word.v.Load64(word.as, ViewApp, va, true)
					wantErr = bytewise.v.ReadVirt(bytewise.as, ViewApp, va, buf, true)
					if wantErr == nil {
						want = binary.LittleEndian.Uint64(buf)
					}
				}
				if got != want {
					t.Errorf("%s: value %#x, byte copy %#x", name, got, want)
				}
				if a, b := describeErr(gotErr), describeErr(wantErr); a != b {
					t.Errorf("%s: error %s, byte copy %s", name, a, b)
				}
				wantType := c.readErr
				if write {
					wantType = c.writeErr
				}
				if gotType := errType(gotErr); gotType != wantType {
					t.Errorf("%s: error type %q, want %q", name, gotType, wantType)
				}
				a, b := observeWord(word), observeWord(bytewise)
				if a.now != b.now || a.counters != b.counters || a.events != b.events ||
					a.tlbLen != b.tlbLen || a.guestPTE != b.guestPTE {
					t.Errorf("%s: word path state %+v\nbyte copy state %+v", name,
						wordState{a.now, a.counters, a.events, a.tlbLen, a.guestPTE, nil},
						wordState{b.now, b.counters, b.events, b.tlbLen, b.guestPTE, nil})
				}
				if !bytes.Equal(a.memory, b.memory) {
					t.Errorf("%s: machine memory differs from the byte copy's", name)
				}
			}
		}
	}
}
