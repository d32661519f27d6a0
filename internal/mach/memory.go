// Package mach models the physical machine that everything else runs on:
// byte-addressable machine memory divided into 4 KiB frames, and a
// block-device disk used for the guest filesystem image and swap.
//
// Addresses come in three flavours throughout the system, following the
// paper's terminology:
//
//   - VA / VPN: guest-virtual addresses, what applications and the guest
//     kernel issue.
//   - GPA / GPPN: guest-physical, what the guest kernel believes is RAM.
//   - MA / MPN: machine addresses, real frames in this package. Only the
//     VMM sees these.
package mach

import "fmt"

// Core geometry of the simulated machine. 4 KiB pages, as on x86.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// MPN is a machine page number (machine address >> PageShift).
type MPN uint64

// GPPN is a guest-physical page number.
type GPPN uint64

// VPN is a guest-virtual page number.
type VPN uint64

// Addr is a byte address; context determines which space it is in.
type Addr uint64

// PageOf returns the page number containing a.
func PageOf(a Addr) uint64 { return uint64(a) >> PageShift }

// PageOffset returns the offset of a within its page.
func PageOffset(a Addr) uint64 { return uint64(a) & PageMask }

// PageBase returns the first address of the page containing a.
func PageBase(a Addr) Addr { return a &^ Addr(PageMask) }

// Memory is the machine's physical RAM, addressed by MPN.
type Memory struct {
	frames [][]byte
}

// NewMemory builds RAM with the given number of frames.
func NewMemory(frames int) *Memory {
	if frames <= 0 {
		panic("mach: memory must have at least one frame")
	}
	m := &Memory{frames: make([][]byte, frames)}
	for i := range m.frames {
		m.frames[i] = make([]byte, PageSize)
	}
	return m
}

// NumFrames reports the total number of machine frames.
func (m *Memory) NumFrames() int { return len(m.frames) }

// Page returns the backing bytes of frame mpn. The returned slice aliases
// machine memory; writes through it are real writes. Only trusted components
// (the VMM and the simulated hardware) hold Memory directly.
func (m *Memory) Page(mpn MPN) []byte {
	if int(mpn) >= len(m.frames) {
		panic(fmt.Sprintf("mach: MPN %d out of range (%d frames)", mpn, len(m.frames)))
	}
	return m.frames[mpn]
}
