// Secureio: cloaked file I/O through the shim's transparent memory-mapped
// emulation. A cloaked process writes a record file under /secret/; the
// bytes that reach the guest filesystem (and swap) are ciphertext, yet the
// application — and a second cloaked process — read the plaintext back
// through ordinary read()/write() calls.
package main

import (
	"bytes"
	"fmt"

	"overshadow"
	"overshadow/internal/sim"
)

func main() {
	sys := overshadow.NewSystem(overshadow.Config{MemoryPages: 2048})

	record := []byte("account=alice balance=95000 pin=0000 // extremely private")

	sys.Register("writer", func(e overshadow.Env) {
		e.Mkdir("/secret")
		buf, _ := e.Alloc(1)
		e.WriteMem(buf, record)
		fd, err := e.Open("/secret/accounts.db", overshadow.OCreate|overshadow.ORdWr)
		if err != nil {
			fmt.Println("open failed:", err)
			e.Exit(1)
		}
		if _, err := e.Write(fd, buf, len(record)); err != nil {
			fmt.Println("write failed:", err)
			e.Exit(1)
		}
		e.Close(fd)
		// Signal completion for the auditor/reader.
		done, _ := e.Open("/handoff", overshadow.OCreate|overshadow.OWrOnly)
		e.Close(done)
		e.Exit(0)
	})

	sys.Register("reader", func(e overshadow.Env) {
		for {
			if _, err := e.Stat("/handoff"); err == nil {
				break
			}
			e.Sleep(50_000)
		}
		fd, err := e.Open("/secret/accounts.db", overshadow.ORdOnly)
		if err != nil {
			fmt.Println("reader open failed:", err)
			e.Exit(1)
		}
		out, _ := e.Alloc(1)
		n, err := e.Read(fd, out, 256)
		if err != nil {
			fmt.Println("reader read failed:", err)
			e.Exit(1)
		}
		got := make([]byte, n)
		e.ReadMem(out, got)
		fmt.Printf("second cloaked process read: %q\n", got)
		if !bytes.Equal(got, record) {
			fmt.Println("FAILURE: data mismatch")
		}
		e.Close(fd)
		e.Exit(0)
	})

	sys.Spawn("writer", overshadow.Cloaked())
	sys.Spawn("reader", overshadow.Cloaked())
	sys.Run()

	// Host-side audit: what actually sits in the guest filesystem?
	stored, err := sys.ReadGuestFile("/secret/accounts.db")
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nbytes on the guest 'disk': %x…\n", stored[:32])
	if bytes.Contains(stored, record[:12]) {
		fmt.Println("FAILURE: plaintext hit the filesystem")
	} else {
		fmt.Println("OK: the filesystem (and hence the OS, backups, and the")
		fmt.Println("    disk) holds only ciphertext — yet read()/write() were")
		fmt.Println("    ordinary calls; the shim's mmap emulation did the rest.")
	}
	fmt.Printf("\nshim-emulated I/O ops: %d, marshalled bytes: %d\n",
		sys.Stats().Get(sim.CtrShimSyscall),
		sys.Stats().Get(sim.CtrShimMarshalBytes))
}
