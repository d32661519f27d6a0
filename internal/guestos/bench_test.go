package guestos

import (
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// benchKernel runs body once inside a fresh guest and reports simulated
// cycles per op through the harness-level benches; here we measure the
// host-side simulator speed of hot paths.
func benchRun(b *testing.B, body Program) {
	b.Helper()
	w := sim.NewWorld(sim.DefaultCostModel(), 1)
	hv := mustVMM(b, w, vmm.Config{GuestPages: 2048})
	k := NewKernel(w, hv, Config{MemoryPages: 2048})
	k.RegisterProgram("bench", body)
	if _, err := k.Spawn("bench", SpawnOpts{}); err != nil {
		b.Fatal(err)
	}
	k.Run()
}

func BenchmarkNullSyscall(b *testing.B) {
	benchRun(b, func(e Env) {
		for i := 0; i < b.N; i++ {
			e.Null()
		}
		e.Exit(0)
	})
}

func BenchmarkStore64(b *testing.B) {
	benchRun(b, func(e Env) {
		base, _ := e.Alloc(16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Store64(base+mach.Addr((i%16)*4096), uint64(i))
		}
		e.Exit(0)
	})
}

// sinkWord keeps the benchmarked loads from being optimized away.
var sinkWord uint64

// BenchmarkLoad64 measures the word load on a TLB hit: the same 16 pages
// the 256-entry TLB holds throughout.
func BenchmarkLoad64(b *testing.B) {
	benchRun(b, func(e Env) {
		base, _ := e.Alloc(16)
		for p := 0; p < 16; p++ {
			e.Store64(base+mach.Addr(p*mach.PageSize), uint64(p))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkWord = e.Load64(base + mach.Addr((i%16)*mach.PageSize+(i/16%512)*8))
		}
		b.StopTimer()
		e.Exit(0)
	})
}

// BenchmarkLoad64TLBMiss measures the word load on a TLB miss that the
// shadow page table serves: one load per page over 1024 resident pages,
// four times the 256-entry TLB's reach.
func BenchmarkLoad64TLBMiss(b *testing.B) {
	const pages = 1024
	benchRun(b, func(e Env) {
		base, _ := e.Alloc(pages)
		for p := 0; p < pages; p++ {
			e.Store64(base+mach.Addr(p*mach.PageSize), uint64(p))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkWord = e.Load64(base + mach.Addr((i%pages)*mach.PageSize))
		}
		b.StopTimer()
		e.Exit(0)
	})
}

func BenchmarkPipePingPong(b *testing.B) {
	benchRun(b, func(e Env) {
		r1, w1, _ := e.Pipe()
		r2, w2, _ := e.Pipe()
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, []byte{1})
		pid, _ := e.Fork(func(c Env) {
			c.Close(w1)
			c.Close(r2)
			cb, _ := c.Alloc(1)
			for {
				n, err := c.Read(r1, cb, 1)
				if err != nil || n == 0 {
					break
				}
				c.Write(w2, cb, 1)
			}
			c.Exit(0)
		})
		e.Close(r1)
		e.Close(w2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Write(w1, buf, 1)
			e.Read(r2, buf, 1)
		}
		b.StopTimer()
		e.Close(w1)
		e.Close(r2)
		e.WaitPid(pid)
		e.Exit(0)
	})
}

func BenchmarkForkWait(b *testing.B) {
	benchRun(b, func(e Env) {
		base, _ := e.Alloc(8)
		e.Store64(base, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pid, err := e.Fork(func(c Env) { c.Exit(0) })
			if err != nil {
				b.Fatal(err)
			}
			e.WaitPid(pid)
		}
		e.Exit(0)
	})
}

func BenchmarkFileWrite4K(b *testing.B) {
	benchRun(b, func(e Env) {
		fd, _ := e.Open("/bench", OCreate|ORdWr)
		buf, _ := e.Alloc(1)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Pwrite(fd, buf, 4096, uint64(i%64)*4096)
		}
		b.StopTimer()
		e.Close(fd)
		e.Exit(0)
	})
}
