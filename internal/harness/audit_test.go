package harness

import (
	"testing"

	"overshadow/internal/core"
	"overshadow/internal/mach"
)

// TestLeakedFindsMarker shows the leak scan can fail: every leak-free and
// secrecy verdict in the security sweeps reads 1 only because leaked
// returns false, so a marker planted on either disk must be found.
func TestLeakedFindsMarker(t *testing.T) {
	marker := []byte("AUDIT-KIT-MARKER")
	// Mid-block, in the last block: the scan must cover whole blocks and
	// every block of the device.
	plant := func(d *mach.Disk) {
		d.Poke(d.NumBlocks()-1, append(make([]byte, 1000), marker...))
	}
	boot := func() *core.System {
		return core.NewSystem(core.Config{MemoryPages: 96, Seed: 1})
	}

	if leaked(boot(), marker) {
		t.Fatal("leaked reports the marker on a freshly booted machine")
	}
	swap := boot()
	plant(swap.Kernel.SwapDisk())
	if !leaked(swap, marker) {
		t.Error("leaked misses the marker planted on the swap disk")
	}
	fs := boot()
	plant(fs.Kernel.FS().Disk())
	if !leaked(fs, marker) {
		t.Error("leaked misses the marker planted on the FS disk")
	}
}
