// Maliciousos: the OS turns hostile. This example mounts the full attack
// repertoire of a compromised kernel against one cloaked victim — syscall
// snooping, register harvesting, memory tampering, and swap games — and
// reports, attack by attack, what leaked (nothing), what was silently
// corrupted (nothing), and what the VMM detected.
package main

import (
	"bytes"
	"fmt"

	"overshadow"
	"overshadow/internal/guestos"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

var secret = []byte("patient record #4421: diagnosis confidential")

func main() {
	fmt.Println("=== attack 1: snoop application memory at every syscall ===")
	snoop()
	fmt.Println("\n=== attack 2: harvest registers at every trap ===")
	registers()
	fmt.Println("\n=== attack 3: tamper with application memory ===")
	tamper()
	fmt.Println("\n=== attack 4: corrupt pages in swap ===")
	swapAttack()
}

func heapVA() overshadow.Addr {
	return overshadow.Addr(guestos.LayoutHeapBase * overshadow.PageSize)
}

func snoop() {
	sys := overshadow.NewSystem(overshadow.Config{MemoryPages: 1024})
	var seen [][]byte
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		buf := make([]byte, len(secret))
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, heapVA(), buf, false); err == nil {
			seen = append(seen, buf)
		}
	}
	sys.Register("victim", func(e overshadow.Env) {
		base, _ := e.Sbrk(1)
		e.WriteMem(base, secret)
		for i := 0; i < 8; i++ {
			e.Null()
		}
		e.Exit(0)
	})
	sys.Spawn("victim", overshadow.Cloaked())
	sys.Run()
	leaks := 0
	for _, s := range seen {
		if bytes.Contains(s, secret[:8]) {
			leaks++
		}
	}
	fmt.Printf("kernel read the victim's heap %d times, plaintext leaks: %d\n", len(seen), leaks)
	fmt.Printf("sample of what it got: %x…\n", seen[len(seen)-1][:16])
}

func registers() {
	sys := overshadow.NewSystem(overshadow.Config{MemoryPages: 1024})
	var nonzero int
	var traps int
	sys.Adversary().OnSyscall = func(_ *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, kregs *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		traps++
		if kregs.PC != 0 || kregs.SP != 0 {
			nonzero++
		}
	}
	sys.Register("victim", func(e overshadow.Env) {
		for i := 0; i < 10; i++ {
			e.Compute(1000)
			e.Null()
		}
		e.Exit(0)
	})
	sys.Spawn("victim", overshadow.Cloaked())
	sys.Run()
	fmt.Printf("kernel saw %d traps; PC/SP were non-scrubbed in %d of them\n", traps, nonzero)
}

func tamper() {
	sys := overshadow.NewSystem(overshadow.Config{MemoryPages: 1024})
	done := false
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		if done || !p.Cloaked() {
			return
		}
		if err := k.VMM().WriteVirt(p.AddressSpace(), vmm.ViewSystem, heapVA(), []byte("pwnd"), false); err == nil {
			done = true
		}
	}
	survived := false
	sys.Register("victim", func(e overshadow.Env) {
		base, _ := e.Sbrk(1)
		e.WriteMem(base, secret)
		e.Null() // tamper happens here
		buf := make([]byte, len(secret))
		e.ReadMem(base, buf) // VMM kills us before we see forged data
		survived = true
		e.Exit(0)
	})
	sys.Spawn("victim", overshadow.Cloaked())
	sys.Run()
	fmt.Printf("kernel overwrote the victim's page: %v\n", done)
	fmt.Printf("victim consumed forged data: %v\n", survived)
	for _, ev := range sys.SecurityEvents() {
		if ev.Kind == vmm.EventIntegrityViolation {
			fmt.Printf("VMM detected: %v\n", ev)
			return
		}
	}
	fmt.Println("NOT DETECTED — this would be a bug")
}

func swapAttack() {
	sys := overshadow.NewSystem(overshadow.Config{MemoryPages: 128})
	flips := 0
	sys.Adversary().OnPageIn = func(_ *guestos.Kernel, p *guestos.Proc, _ uint64, frame []byte) {
		if p.Cloaked() && flips == 0 {
			frame[0] ^= 0xFF
			flips++
		}
	}
	finished := false
	sys.Register("victim", func(e overshadow.Env) {
		const pages = 200 // exceeds RAM: forces swap
		base, _ := e.Alloc(pages)
		for i := 0; i < pages; i++ {
			e.Store64(base+overshadow.Addr(i*overshadow.PageSize), uint64(i))
		}
		for i := 0; i < pages; i++ {
			_ = e.Load64(base + overshadow.Addr(i*overshadow.PageSize))
		}
		finished = true
		e.Exit(0)
	})
	sys.Spawn("victim", overshadow.Cloaked())
	sys.Run()
	fmt.Printf("kernel flipped bits in %d swapped-in page(s)\n", flips)
	fmt.Printf("victim finished with corrupted data: %v\n", finished)
	fmt.Printf("verification failures recorded: %d\n",
		sys.Stats().Get(sim.CtrHashVerifyFail))
}
