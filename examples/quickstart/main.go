// Quickstart: boot the machine, run one cloaked application, and show that
// the guest kernel sees only ciphertext while the application computes on
// plaintext.
package main

import (
	"bytes"
	"fmt"

	"overshadow"
	"overshadow/internal/guestos"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

func main() {
	sys := overshadow.NewSystem(overshadow.Config{MemoryPages: 1024})

	secret := []byte("my diary: today I learned about multi-shadowing")
	var kernelView []byte

	// Peek at the application's heap from the kernel's (system) view on
	// every syscall — this is what any kernel code path would see.
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, _ *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		buf := make([]byte, len(secret))
		va := overshadow.Addr(guestos.LayoutHeapBase * overshadow.PageSize)
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, va, buf, false); err == nil {
			kernelView = buf
		}
	}

	sys.Register("diary", func(e overshadow.Env) {
		heap, _ := e.Sbrk(1) // one page of protected heap
		e.WriteMem(heap, secret)
		e.Null() // enter the kernel once so it gets its chance to look

		got := make([]byte, len(secret))
		e.ReadMem(heap, got)
		fmt.Printf("app sees:    %q\n", got)
		e.Exit(0)
	})

	if _, err := sys.Spawn("diary", overshadow.Cloaked()); err != nil {
		panic(err)
	}
	sys.Run()

	fmt.Printf("kernel sees: %x…\n", kernelView[:24])
	if bytes.Contains(kernelView, secret[:8]) {
		fmt.Println("FAILURE: the kernel observed plaintext")
	} else {
		fmt.Println("OK: the kernel observed only ciphertext")
	}
	fmt.Printf("simulated time: %v; encryptions: %d, decryptions: %d\n",
		sys.Now(),
		sys.Stats().Get(sim.CtrPageEncrypt),
		sys.Stats().Get(sim.CtrPageDecrypt))
}
