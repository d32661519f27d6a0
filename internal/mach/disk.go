package mach

import (
	"fmt"

	"overshadow/internal/fault"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
)

// ErrIO is the sentinel for injected device failures; callers distinguish it
// from programming errors (bounds, short buffers) to drive retry logic.
var ErrIO = fmt.Errorf("disk: I/O error")

// BlockSize is the disk sector size; one page per block keeps swap simple.
const BlockSize = PageSize

// Disk is a simple block device with a latency model: a fixed seek cost per
// operation plus a per-byte transfer cost. Blocks are allocated lazily so a
// large device costs nothing until written.
type Disk struct {
	world  *sim.World
	blocks map[uint64][]byte
	nblk   uint64
}

// NewDisk creates a disk with nblk blocks.
func NewDisk(world *sim.World, nblk uint64) *Disk {
	return &Disk{world: world, blocks: make(map[uint64][]byte), nblk: nblk}
}

// NumBlocks reports the device capacity in blocks.
func (d *Disk) NumBlocks() uint64 { return d.nblk }

// Read copies block blk into dst (len >= BlockSize) and charges disk latency.
// Unwritten blocks read as zeros.
func (d *Disk) Read(blk uint64, dst []byte) error {
	if blk >= d.nblk {
		return fmt.Errorf("disk: read of block %d beyond device (%d blocks)", blk, d.nblk)
	}
	if len(dst) < BlockSize {
		return fmt.Errorf("disk: short read buffer (%d bytes)", len(dst))
	}
	cost := d.world.Cost.DiskSeek + sim.Cycles(BlockSize)*d.world.Cost.DiskPerByte
	c := d.world.CPU()
	c.ChargeCount(cost, sim.CtrDiskRead)
	c.EmitSpan(obs.KindDisk, "read", blk, cost)
	kind, _ := c.InjectAt(fault.SiteDiskRead)
	if kind == fault.Fail {
		return fmt.Errorf("%w: read of block %d", ErrIO, blk)
	}
	if b, ok := d.blocks[blk]; ok {
		copy(dst[:BlockSize], b)
	} else {
		for i := 0; i < BlockSize; i++ {
			dst[i] = 0
		}
	}
	// A corrupted sector "succeeds": the damage surfaces only when a
	// higher layer verifies the payload.
	if kind == fault.Corrupt {
		d.world.Fault.Corrupt(dst[:BlockSize])
	}
	return nil
}

// ReadAttempts bounds ReadRetry: a failing block read is tried this many
// times, without backoff, before the error is surfaced.
const ReadAttempts = 3

// ReadRetry is Read with a bounded retry: a transient error gets another
// try, so one bad read is told apart from a persistently failing device.
// The guest pager, journal replay and crash recovery read through it. It
// returns the last error when every attempt fails.
func (d *Disk) ReadRetry(blk uint64, dst []byte) error {
	var err error
	for try := 0; try < ReadAttempts; try++ {
		if err = d.Read(blk, dst); err == nil {
			return nil
		}
	}
	return err
}

// Write stores src (len >= BlockSize) into block blk and charges latency.
func (d *Disk) Write(blk uint64, src []byte) error {
	if blk >= d.nblk {
		return fmt.Errorf("disk: write of block %d beyond device (%d blocks)", blk, d.nblk)
	}
	if len(src) < BlockSize {
		return fmt.Errorf("disk: short write buffer (%d bytes)", len(src))
	}
	cost := d.world.Cost.DiskSeek + sim.Cycles(BlockSize)*d.world.Cost.DiskPerByte
	c := d.world.CPU()
	c.ChargeCount(cost, sim.CtrDiskWrite)
	c.EmitSpan(obs.KindDisk, "write", blk, cost)
	kind, _ := c.InjectAt(fault.SiteDiskWrite)
	if kind == fault.Fail {
		return fmt.Errorf("%w: write of block %d", ErrIO, blk)
	}
	b, ok := d.blocks[blk]
	if !ok {
		//overlint:allow hotpathalloc -- sparse block materialized once on first write, then reused
		b = make([]byte, BlockSize)
		d.blocks[blk] = b
	}
	switch kind {
	case fault.Torn:
		// Torn write: a prefix lands on the medium, then the operation
		// fails. The stale suffix is whatever the block held before.
		n := d.world.Fault.TornLen(BlockSize)
		copy(b[:n], src[:n])
		return fmt.Errorf("%w: torn write of block %d (%d/%d bytes)", ErrIO, blk, n, BlockSize)
	case fault.Corrupt:
		copy(b, src[:BlockSize])
		d.world.Fault.Corrupt(b)
	default:
		copy(b, src[:BlockSize])
	}
	return nil
}

// Peek returns a copy of the stored content of a block without charging
// latency. It exists for adversary hooks (a malicious OS inspecting swapped
// pages) and for tests; nil means never written. Returning a copy keeps
// callers from mutating device state behind Write's back — tampering must go
// through Poke/PokeRaw so it cannot accidentally bypass fault injection
// semantics.
func (d *Disk) Peek(blk uint64) []byte {
	b, ok := d.blocks[blk]
	if !ok {
		return nil
	}
	out := make([]byte, BlockSize)
	copy(out, b)
	return out
}

// PokeRaw returns the live internal block slice (nil if never written) for
// adversary code that genuinely needs in-place aliasing — e.g. tampering
// with a sector during a simulated DMA window. Mutations bypass Write's
// latency accounting and fault injection by design; all other callers must
// use Peek/Poke.
func (d *Disk) PokeRaw(blk uint64) []byte { return d.blocks[blk] }

// ErrRehomeMidFault is returned by Rehome when the device still has I/O
// faults mid-schedule on its current (live) world. Splicing the device onto
// a different world at that point would silently abandon part of a declared
// fault schedule — the (seed, plan) pair would no longer name one exact
// failure history — so the move is refused with a typed error instead.
var ErrRehomeMidFault = fmt.Errorf("disk: rehome refused: I/O fault schedule still active on the current world")

// Rehome reattaches the device to a new simulation world, preserving every
// stored block. This models the disk surviving a whole-machine crash: the
// rebooted machine charges its own clock for I/O against the old medium.
//
// Re-homing away from a *live* world whose fault injector still has disk
// faults mid-schedule is refused with ErrRehomeMidFault: the remaining
// injections belong to the old machine's declared failure history, and
// carrying the device away mid-schedule would silently drop them. A crashed
// world has no further I/O by definition, so its schedule is complete and
// the move is always allowed — which is exactly the Reboot path.
func (d *Disk) Rehome(w *sim.World) error {
	if w != d.world && d.world.Fault != nil && !d.world.Clock.Crashed() {
		for _, site := range []fault.Site{fault.SiteDiskRead, fault.SiteDiskWrite} {
			if d.world.Fault.SiteActive(site) {
				return fmt.Errorf("%w (%s)", ErrRehomeMidFault, site)
			}
		}
	}
	d.world = w
	return nil
}

// Poke overwrites a block without charging latency; used by adversarial
// tests to model offline tampering with the swap device.
func (d *Disk) Poke(blk uint64, src []byte) {
	b := make([]byte, BlockSize)
	copy(b, src)
	d.blocks[blk] = b
}
