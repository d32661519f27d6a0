package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"overshadow/internal/guestos"
	"overshadow/internal/mach"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

func TestCloakedProcessRunsNormally(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	var result uint64
	sys.Register("app", func(e Env) {
		if !e.Cloaked() {
			t.Error("process not cloaked")
		}
		base, err := e.Alloc(4)
		if err != nil {
			t.Errorf("alloc: %v", err)
			e.Exit(1)
		}
		// Compute over protected memory.
		for i := uint64(0); i < 100; i++ {
			e.Store64(base+Addr(i*8), i*i)
		}
		var sum uint64
		for i := uint64(0); i < 100; i++ {
			sum += e.Load64(base + Addr(i*8))
		}
		result = sum
		e.Exit(0)
	})
	if _, err := sys.Spawn("app", Cloaked()); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	var want uint64
	for i := uint64(0); i < 100; i++ {
		want += i * i
	}
	if result != want {
		t.Fatalf("sum = %d, want %d", result, want)
	}
}

func TestKernelSnoopSeesOnlyCiphertext(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	secret := []byte("the launch codes are 00000000")
	var observed [][]byte
	// Malicious kernel: on every syscall, scan the process's heap through
	// the system view and record what it sees.
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, no guestos.Sysno, _ *vmm.Regs) {
		if !p.Cloaked() {
			return
		}
		buf := make([]byte, len(secret))
		va := Addr(guestos.LayoutHeapBase * PageSize)
		if err := k.VMM().ReadVirt(p.AddressSpace(), vmm.ViewSystem, va, buf, false); err == nil {
			observed = append(observed, append([]byte(nil), buf...))
		}
	}
	sys.Register("app", func(e Env) {
		base, _ := e.Sbrk(2)
		e.WriteMem(base, secret)
		for i := 0; i < 20; i++ {
			e.Null() // each syscall gives the kernel a chance to snoop
		}
		// The app must still read its own plaintext afterwards.
		got := make([]byte, len(secret))
		e.ReadMem(base, got)
		if !bytes.Equal(got, secret) {
			t.Error("app lost its own data")
		}
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if len(observed) == 0 {
		t.Fatal("adversary never managed to read")
	}
	for _, snap := range observed {
		if bytes.Contains(snap, secret[:12]) {
			t.Fatal("kernel observed cloaked plaintext")
		}
	}
}

func TestKernelTamperKillsVictim(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	tampered := false
	sys.Adversary().OnSyscall = func(k *guestos.Kernel, p *guestos.Proc, no guestos.Sysno, _ *vmm.Regs) {
		if tampered || !p.Cloaked() {
			return
		}
		// Flip bits in the victim's heap through the system view.
		va := Addr(guestos.LayoutHeapBase * PageSize)
		evil := []byte{0xFF, 0xFF, 0xFF, 0xFF}
		if err := k.VMM().WriteVirt(p.AddressSpace(), vmm.ViewSystem, va, evil, false); err == nil {
			tampered = true
		}
	}
	reachedEnd := false
	sys.Register("victim", func(e Env) {
		base, _ := e.Sbrk(1)
		e.Store64(base, 0x1234)
		e.Null() // adversary tampers here
		_ = e.Load64(base)
		reachedEnd = true // must not be reached: access above kills us
		e.Exit(0)
	})
	sys.Spawn("victim", Cloaked())
	sys.Run()
	if !tampered {
		t.Fatal("adversary never tampered")
	}
	if reachedEnd {
		t.Fatal("victim consumed tampered data without detection")
	}
	// The violation must be in the audit log.
	found := false
	for _, ev := range sys.SecurityEvents() {
		if ev.Kind == vmm.EventIntegrityViolation {
			found = true
		}
	}
	if !found {
		t.Fatal("no integrity violation logged")
	}
}

func TestRegisterScrubbing(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	const secretReg = 0xDEADBEEFCAFE
	var seenPC, seenSP []uint64
	sys.Adversary().OnSyscall = func(_ *guestos.Kernel, p *guestos.Proc, _ guestos.Sysno, kregs *vmm.Regs) {
		if p.Cloaked() {
			seenPC = append(seenPC, kregs.PC)
			seenSP = append(seenSP, kregs.SP)
		}
	}
	sys.Register("app", func(e Env) {
		uc, ok := envThread(e)
		if ok {
			uc.Regs.PC = secretReg // private state in protected registers
			uc.Regs.SP = secretReg
		}
		e.Null()
		if ok && (uc.Regs.PC != secretReg || uc.Regs.SP != secretReg) {
			t.Error("registers not restored after trap")
		}
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if len(seenPC) == 0 {
		t.Fatal("no register snapshots")
	}
	for i := range seenPC {
		if seenPC[i] == secretReg || seenSP[i] == secretReg {
			t.Fatal("kernel observed protected register contents")
		}
	}
}

// envThread digs the VMM thread out of a (possibly shim-wrapped) Env.
func envThread(e Env) (*vmm.Thread, bool) {
	type threader interface{ Thread() *vmm.Thread }
	// The shim Ctx doesn't expose Thread; reach through known types.
	if uc, ok := e.(*guestos.UserCtx); ok {
		return uc.Thread(), true
	}
	if th, ok := e.(threader); ok {
		return th.Thread(), true
	}
	return nil, false
}

func TestMarshalledFileIORoundTrip(t *testing.T) {
	// A cloaked process does ordinary (uncloaked) file I/O: the shim
	// marshals through scratch; data must round-trip correctly AND the
	// kernel legitimately sees plaintext (it is an ordinary file).
	sys := NewSystem(Config{MemoryPages: 512})
	payload := []byte("ordinary file contents, kernel may see this")
	var kernelSaw []byte
	sys.Adversary().OnWriteData = func(_ *guestos.Kernel, p *guestos.Proc, fd int, data []byte) {
		if p.Cloaked() {
			kernelSaw = append([]byte(nil), data...)
		}
	}
	var got []byte
	sys.Register("app", func(e Env) {
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, payload)
		fd, err := e.Open("/plain.txt", OCreate|ORdWr)
		if err != nil {
			t.Errorf("open: %v", err)
			e.Exit(1)
		}
		if n, err := e.Write(fd, buf, len(payload)); err != nil || n != len(payload) {
			t.Errorf("write = %d,%v", n, err)
		}
		e.Lseek(fd, 0, SeekSet)
		out, _ := e.Alloc(1)
		n, err := e.Read(fd, out, len(payload))
		if err != nil || n != len(payload) {
			t.Errorf("read = %d,%v", n, err)
		}
		got = make([]byte, n)
		e.ReadMem(out, got)
		e.Close(fd)
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip got %q", got)
	}
	if !bytes.Equal(kernelSaw, payload) {
		t.Fatalf("kernel should see plaintext of ordinary files; saw %q", kernelSaw)
	}
	if sys.Stats().Get(sim.CtrShimMarshalBytes) == 0 {
		t.Fatal("no marshalling recorded")
	}
}

func TestCloakedFileIOKernelSeesCiphertext(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	payload := []byte("PROTECTED database record: balance=1000000")
	var got []byte
	sys.Register("app", func(e Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, payload)
		fd, err := e.Open("/secret/db.rec", OCreate|ORdWr)
		if err != nil {
			t.Errorf("open: %v", err)
			e.Exit(1)
		}
		if n, err := e.Write(fd, buf, len(payload)); err != nil || n != len(payload) {
			t.Errorf("write = %d,%v", n, err)
		}
		if err := e.Close(fd); err != nil {
			t.Errorf("close: %v", err)
		}
		// Reopen and read back.
		fd, err = e.Open("/secret/db.rec", ORdWr)
		if err != nil {
			t.Errorf("reopen: %v", err)
			e.Exit(1)
		}
		st, _ := e.Fstat(fd)
		if st.Size != uint64(len(payload)) {
			t.Errorf("size = %d, want %d", st.Size, len(payload))
		}
		out, _ := e.Alloc(1)
		n, err := e.Read(fd, out, len(payload))
		if err != nil || n != len(payload) {
			t.Errorf("read = %d,%v", n, err)
		}
		got = make([]byte, n)
		e.ReadMem(out, got)
		e.Close(fd)
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip got %q, want %q", got, payload)
	}
	// What landed in the filesystem must be ciphertext.
	stored, err := sys.ReadGuestFile("/secret/db.rec")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stored, payload[:16]) {
		t.Fatal("cloaked file stored plaintext")
	}
}

func TestCloakedFileSharedAcrossProcesses(t *testing.T) {
	// Writer process persists a cloaked file; a separate reader process
	// (its own domain) opens and reads it via the shared file vault.
	sys := NewSystem(Config{MemoryPages: 512})
	payload := []byte("handed off between cloaked processes")
	var got []byte
	sys.Register("writer", func(e Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, payload)
		fd, err := e.Open("/secret/shared", OCreate|OWrOnly)
		if err != nil {
			t.Errorf("writer open: %v", err)
			e.Exit(1)
		}
		e.Write(fd, buf, len(payload))
		e.Close(fd)
		// Publish completion only after the data file is fully flushed.
		done, _ := e.Open("/done", OCreate|OWrOnly)
		e.Close(done)
		e.Exit(0)
	})
	sys.Register("reader", func(e Env) {
		// Wait for the writer to finish.
		for {
			if _, err := e.Stat("/done"); err == nil {
				break
			}
			e.Sleep(100_000)
		}
		fd, err := e.Open("/secret/shared", ORdOnly)
		if err != nil {
			t.Errorf("reader open: %v", err)
			e.Exit(1)
		}
		out, _ := e.Alloc(1)
		n, err := e.Read(fd, out, 128)
		if err != nil {
			t.Errorf("reader read: %v", err)
		}
		got = make([]byte, n)
		e.ReadMem(out, got)
		e.Exit(0)
	})
	sys.Spawn("writer", Cloaked())
	sys.Spawn("reader", Cloaked())
	sys.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("reader got %q", got)
	}
}

func TestCloakedForkInheritsMemory(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 1024})
	secret := []byte("inherited secret")
	var childGot []byte
	var parentAfter []byte
	sys.Register("app", func(e Env) {
		base, _ := e.Alloc(2)
		e.WriteMem(base, secret)
		pid, err := e.Fork(func(ce Env) {
			got := make([]byte, len(secret))
			ce.ReadMem(base, got)
			childGot = got
			// Child writes; parent must not see it.
			ce.WriteMem(base, []byte("child overwrote!"))
			ce.Exit(0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			e.Exit(1)
		}
		e.WaitPid(pid)
		got := make([]byte, len(secret))
		e.ReadMem(base, got)
		parentAfter = got
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if !bytes.Equal(childGot, secret) {
		t.Fatalf("child got %q", childGot)
	}
	if !bytes.Equal(parentAfter, secret) {
		t.Fatalf("parent sees %q after child write", parentAfter)
	}
}

func TestCloakedSwapUnderPressure(t *testing.T) {
	// Cloaked working set exceeds RAM: pages must round-trip through swap
	// as ciphertext with integrity intact.
	sys := NewSystem(Config{MemoryPages: 128})
	const pages = 220
	ok := false
	sys.Register("app", func(e Env) {
		base, err := e.Alloc(pages)
		if err != nil {
			t.Errorf("alloc: %v", err)
			e.Exit(1)
		}
		for i := uint64(0); i < pages; i++ {
			e.Store64(base+Addr(i*PageSize), i^0xABCD)
		}
		for i := uint64(0); i < pages; i++ {
			if got := e.Load64(base + Addr(i*PageSize)); got != i^0xABCD {
				t.Errorf("page %d corrupted: %x", i, got)
				e.Exit(1)
			}
		}
		ok = true
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if !ok {
		t.Fatal("workload did not complete")
	}
	if sys.Stats().Get(sim.CtrPageOut) == 0 {
		t.Fatal("no paging happened; test ineffective")
	}
	// Swap-out of cloaked pages must have forced encryption.
	if sys.Stats().Get(sim.CtrPageEncrypt) == 0 {
		t.Fatal("cloaked pages swapped without encryption")
	}
}

func TestSwapTamperDetected(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 128})
	tampered := 0
	sys.Adversary().OnPageIn = func(_ *guestos.Kernel, p *guestos.Proc, vpn uint64, frame []byte) {
		if p.Cloaked() && tampered == 0 {
			frame[17] ^= 0x80
			tampered++
		}
	}
	completed := false
	sys.Register("app", func(e Env) {
		const pages = 220
		base, _ := e.Alloc(pages)
		for i := uint64(0); i < pages; i++ {
			e.Store64(base+Addr(i*PageSize), i)
		}
		for i := uint64(0); i < pages; i++ {
			_ = e.Load64(base + Addr(i*PageSize))
		}
		completed = true
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if tampered == 0 {
		t.Skip("no page-in happened; cannot exercise tamper")
	}
	if completed {
		t.Fatal("app consumed tampered swap data")
	}
	found := false
	for _, ev := range sys.SecurityEvents() {
		if ev.Kind == vmm.EventIntegrityViolation {
			found = true
		}
	}
	if !found {
		t.Fatal("tamper not logged")
	}
}

func TestNativeAndCloakedCoexist(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 1024})
	results := map[string]uint64{}
	mk := func(name string) Program {
		return func(e Env) {
			base, _ := e.Alloc(1)
			var sum uint64
			for i := uint64(0); i < 50; i++ {
				e.Store64(base, i)
				sum += e.Load64(base)
				e.Compute(1000)
			}
			results[name] = sum
			e.Exit(0)
		}
	}
	sys.Register("native", mk("native"))
	sys.Register("cloaked", mk("cloaked"))
	sys.Spawn("native")
	sys.Spawn("cloaked", Cloaked())
	sys.Run()
	if results["native"] != results["cloaked"] {
		t.Fatalf("results differ: %v", results)
	}
}

func TestCloakedSignalHandler(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	var handlerCloaked bool
	var delivered int
	sys.Register("app", func(e Env) {
		pid, _ := e.Fork(func(ce Env) {
			ce.Signal(SIGUSR1, func(he Env, s Signal) {
				handlerCloaked = he.Cloaked()
				delivered++
			})
			for delivered == 0 {
				ce.Yield()
			}
			ce.Exit(0)
		})
		e.Yield()
		e.Kill(pid, SIGUSR1)
		e.WaitPid(pid)
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if !handlerCloaked {
		t.Fatal("handler ran outside the shim environment")
	}
}

func TestCloakedExec(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	var secondRan bool
	sys.Register("second", func(e Env) {
		if !e.Cloaked() {
			t.Error("exec image not cloaked")
		}
		base, _ := e.Alloc(1)
		e.Store64(base, 5)
		if e.Load64(base) != 5 {
			t.Error("post-exec memory broken")
		}
		secondRan = true
		e.Exit(0)
	})
	sys.Register("first", func(e Env) {
		if err := e.Exec("second", nil); err != nil {
			t.Errorf("exec: %v", err)
			e.Exit(1)
		}
	})
	sys.Spawn("first", Cloaked())
	sys.Run()
	if !secondRan {
		t.Fatal("exec'd image never ran")
	}
}

func TestCloakedPipeBetweenRelatives(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 1024})
	msg := []byte("pipe data crosses the kernel marshalled")
	var got []byte
	sys.Register("app", func(e Env) {
		rfd, wfd, err := e.Pipe()
		if err != nil {
			t.Errorf("pipe: %v", err)
			e.Exit(1)
		}
		pid, _ := e.Fork(func(ce Env) {
			buf, _ := ce.Alloc(1)
			ce.WriteMem(buf, msg)
			ce.Write(wfd, buf, len(msg))
			ce.Close(wfd)
			ce.Exit(0)
		})
		e.Close(wfd)
		out, _ := e.Alloc(1)
		n, err := e.Read(rfd, out, 128)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = make([]byte, n)
		e.ReadMem(out, got)
		e.WaitPid(pid)
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestGuestFileHelpers(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 256})
	if err := sys.WriteGuestFile("/input", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	data, err := sys.ReadGuestFile("/input")
	if err != nil || string(data) != "seed" {
		t.Fatalf("%q %v", data, err)
	}
	if _, err := sys.ReadGuestFile("/nope"); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestSecurityEventLogCloakAudit(t *testing.T) {
	sys := NewSystem(Config{MemoryPages: 512})
	sys.Register("app", func(e Env) {
		base, _ := e.Alloc(1)
		e.WriteMem(base, []byte("x"))
		// Ordinary write syscall on a cloaked buffer — unmarshalled this
		// would expose data, but the shim marshals, so the kernel touches
		// only scratch. Then force a kernel touch via an ordinary file
		// write; the heap page itself stays plaintext-for-app.
		fd, _ := e.Open("/f", OCreate|OWrOnly)
		e.Write(fd, base, 1)
		e.Close(fd)
		e.Exit(0)
	})
	sys.Spawn("app", Cloaked())
	sys.Run()
	// Run must complete without violations (benign kernel).
	for _, ev := range sys.SecurityEvents() {
		if ev.Kind == vmm.EventIntegrityViolation || ev.Kind == vmm.EventCTCTamper {
			t.Fatalf("unexpected violation: %v", ev)
		}
	}
}

// TestWordAccessAtPageEnd stores and loads words at page offset 4088, the
// last offset the in-page word path serves, and 4092, which crosses into a
// page not yet faulted in and takes the page-by-page path, in a native and
// a cloaked process. Each word must read back whole through Load64 and,
// little-endian, through ReadMem, and bytes written with WriteMem across
// the boundary must load as the same word.
func TestWordAccessAtPageEnd(t *testing.T) {
	const a, b, c = 0x0102030405060708, 0x1112131415161718, 0x2122232425262728
	for _, cloaked := range []bool{false, true} {
		sys := NewSystem(Config{MemoryPages: 512})
		var errs []string
		sys.Register("app", func(e Env) {
			base, err := e.Alloc(6)
			if err != nil {
				errs = append(errs, err.Error())
				e.Exit(1)
			}
			check := func(va Addr, want uint64) {
				if got := e.Load64(va); got != want {
					errs = append(errs, fmt.Sprintf("Load64(base+%#x) = %#x, want %#x", va-base, got, want))
				}
				buf := make([]byte, 8)
				e.ReadMem(va, buf)
				if got := binary.LittleEndian.Uint64(buf); got != want {
					errs = append(errs, fmt.Sprintf("ReadMem(base+%#x) = %#x, want %#x", va-base, got, want))
				}
			}
			e.Store64(base+4088, a)
			check(base+4088, a)
			e.Store64(base+mach.PageSize+4092, b)
			check(base+mach.PageSize+4092, b)
			check(base+mach.PageSize+4088, (b&0xffffffff)<<32)
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, c)
			e.WriteMem(base+3*mach.PageSize+4092, buf)
			check(base+3*mach.PageSize+4092, c)
			e.Exit(0)
		})
		var opts []SpawnOpt
		if cloaked {
			opts = append(opts, Cloaked())
		}
		if _, err := sys.Spawn("app", opts...); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		for _, e := range errs {
			t.Errorf("cloaked %v: %s", cloaked, e)
		}
	}
}
