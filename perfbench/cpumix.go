package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"overshadow/internal/core"
	"overshadow/internal/sim"
)

// cpu-mix: cloaked and native processes run seeded kernel passes over
// working sets below (matmul, sort) and above (chase, checksum) the 1 MiB
// reach of the 256-entry TLB. Every kernel runs once cloaked and once
// native on identical inputs. The scheduler quantum is larger than any
// pass, and each process yields after a pass, so one op is exactly one
// uninterrupted pass; the only syscalls are that yield and one null call.

const lineBytes = 64 // chase and checksum touch one word per 64-byte line

// cpuKernel is one seeded compute kernel over a guest working set.
type cpuKernel struct {
	name  string
	pages int
	// image builds the working set's initial bytes from the seed.
	image func(r *rand.Rand) []byte
	// pass runs pass p in the guest and returns its result.
	pass func(e core.Env, base core.Addr, p int) uint64
	// ref computes pass p's result on the host from the initial image.
	ref func(img []byte, p int) uint64
}

func word(img []byte, off int) uint64 { return binary.LittleEndian.Uint64(img[off:]) }

func cpuKernels(scale int) []cpuKernel {
	chaseHops := 12288 / scale
	const (
		chasePages = 1024 // 4 MiB
		sumPages   = 512  // 2 MiB
		matN       = 24
		sortN      = 8192
		sortLen    = 1024
	)
	sortL := sortLen / scale
	lines := chasePages * 4096 / lineBytes
	sumLines := sumPages * 4096 / lineBytes / scale
	matBytes := matN * matN * 8
	matSlot := (matBytes + 4095) &^ 4095
	return []cpuKernel{
		{
			name:  "chase",
			pages: chasePages,
			image: func(r *rand.Rand) []byte {
				// Sattolo's algorithm: one cycle through every line.
				next := make([]int, lines)
				for i := range next {
					next[i] = i
				}
				for i := lines - 1; i > 0; i-- {
					j := r.IntN(i)
					next[i], next[j] = next[j], next[i]
				}
				img := make([]byte, chasePages*4096)
				for i, n := range next {
					binary.LittleEndian.PutUint64(img[i*lineBytes:], uint64(n))
				}
				return img
			},
			pass: func(e core.Env, base core.Addr, p int) uint64 {
				x := mix("cpu-mix/chase", uint64(p)) % uint64(lines)
				acc := uint64(0)
				for h := 0; h < chaseHops; h++ {
					x = e.Load64(base + core.Addr(x*lineBytes))
					acc = acc*31 + x
				}
				return acc
			},
			ref: func(img []byte, p int) uint64 {
				x := mix("cpu-mix/chase", uint64(p)) % uint64(lines)
				acc := uint64(0)
				for h := 0; h < chaseHops; h++ {
					x = word(img, int(x)*lineBytes)
					acc = acc*31 + x
				}
				return acc
			},
		},
		{
			name:  "checksum",
			pages: sumPages,
			image: func(r *rand.Rand) []byte {
				img := make([]byte, sumPages*4096)
				fill(r, img)
				return img
			},
			pass: func(e core.Env, base core.Addr, p int) uint64 {
				w := core.Addr(p%8) * 8
				acc := uint64(0xCBF29CE484222325)
				for l := 0; l < sumLines; l++ {
					acc = (acc ^ e.Load64(base+core.Addr(l*lineBytes)+w)) * 0x100000001B3
				}
				return acc
			},
			ref: func(img []byte, p int) uint64 {
				w := (p % 8) * 8
				acc := uint64(0xCBF29CE484222325)
				for l := 0; l < sumLines; l++ {
					acc = (acc ^ word(img, l*lineBytes+w)) * 0x100000001B3
				}
				return acc
			},
		},
		{
			name:  "matmul",
			pages: 3 * matSlot / 4096,
			image: func(r *rand.Rand) []byte {
				img := make([]byte, 3*matSlot)
				for i := 0; i < 2*matN*matN; i++ {
					off := i * 8
					if i >= matN*matN {
						off = matSlot + (i-matN*matN)*8
					}
					binary.LittleEndian.PutUint64(img[off:], r.Uint64()&0xFFFF)
				}
				return img
			},
			pass: func(e core.Env, base core.Addr, p int) uint64 {
				a, b, c := base, base+core.Addr(matSlot), base+core.Addr(2*matSlot)
				acc := uint64(0)
				for i := 0; i < matN; i++ {
					ri := (i + p) % matN
					for j := 0; j < matN; j++ {
						s := uint64(0)
						for k := 0; k < matN; k++ {
							s += e.Load64(a+core.Addr((ri*matN+k)*8)) * e.Load64(b+core.Addr((k*matN+j)*8))
						}
						e.Store64(c+core.Addr((i*matN+j)*8), s)
						acc = acc*0x9E3779B1 + s
					}
				}
				return acc
			},
			ref: func(img []byte, p int) uint64 {
				acc := uint64(0)
				for i := 0; i < matN; i++ {
					ri := (i + p) % matN
					for j := 0; j < matN; j++ {
						s := uint64(0)
						for k := 0; k < matN; k++ {
							s += word(img, (ri*matN+k)*8) * word(img, matSlot+(k*matN+j)*8)
						}
						acc = acc*0x9E3779B1 + s
					}
				}
				return acc
			},
		},
		{
			name:  "sort",
			pages: (sortN + sortLen) * 8 / 4096,
			image: func(r *rand.Rand) []byte {
				img := make([]byte, (sortN+sortLen)*8)
				fill(r, img[:sortN*8])
				return img
			},
			pass: func(e core.Env, base core.Addr, p int) uint64 {
				off := int(mix("cpu-mix/sort", uint64(p)) % uint64(sortN-sortL))
				scratch := base + core.Addr(sortN*8)
				at := func(i int) core.Addr { return scratch + core.Addr(i*8) }
				for i := 0; i < sortL; i++ {
					e.Store64(at(i), e.Load64(base+core.Addr((off+i)*8)))
				}
				heapSort(sortL, func(i int) uint64 { return e.Load64(at(i)) },
					func(i int, v uint64) { e.Store64(at(i), v) })
				acc := uint64(0)
				for i := 0; i < sortL; i++ {
					acc += e.Load64(at(i)) * uint64(i+1)
				}
				return acc
			},
			ref: func(img []byte, p int) uint64 {
				off := int(mix("cpu-mix/sort", uint64(p)) % uint64(sortN-sortL))
				v := make([]uint64, sortL)
				for i := range v {
					v[i] = word(img, (off+i)*8)
				}
				slices.Sort(v)
				acc := uint64(0)
				for i, x := range v {
					acc += x * uint64(i+1)
				}
				return acc
			},
		},
	}
}

// heapSort sorts n elements accessed through get/set, in place.
func heapSort(n int, get func(int) uint64, set func(int, uint64)) {
	sift := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			cv := get(child)
			if child+1 < end {
				if rv := get(child + 1); rv > cv {
					child, cv = child+1, rv
				}
			}
			rv := get(root)
			if rv >= cv {
				return
			}
			set(root, cv)
			set(child, rv)
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sift(i, n)
	}
	for end := n - 1; end > 0; end-- {
		top, last := get(0), get(end)
		set(0, last)
		set(end, top)
		sift(0, end)
	}
}

// cpuPasses is the number of measured passes each process runs.
const cpuPasses = 24

func runCPUMix(p params, heap *heapSampler) *episode {
	ep := &episode{}
	ks := cpuKernels(p.scale)
	passes := cpuPasses
	nproc := 2 * len(ks)

	m := newMeter(ep, p.tr, heap)
	sys := newSystem(p.tr, -1, -1, core.Config{MemoryPages: 8192, Quantum: 1 << 50, Seed: p.seed})
	m.sys = sys

	// Host-side inputs and references; pass index `passes` is the warm-up.
	images := make([][]byte, len(ks))
	refs := make([][]uint64, len(ks))
	for i, k := range ks {
		images[i] = k.image(newRNG("cpu-mix/"+k.name, p.seed))
		refs[i] = make([]uint64, passes+1)
		for j := range refs[i] {
			refs[i][j] = k.ref(images[i], j)
		}
	}
	if p.plant {
		refs[0][0] ^= 1
	}
	results := make([][2][]uint64, len(ks)) // [kernel][cloaked][pass]
	var warmed, finished int

	for ki, k := range ks {
		for mode := 0; mode < 2; mode++ {
			cloaked := mode == 1
			prog := fmt.Sprintf("%s-%d", k.name, mode)
			results[ki][mode] = make([]uint64, passes)
			sys.Register(prog, func(e core.Env) {
				base, err := e.Alloc(k.pages)
				if err != nil {
					problemf(&ep.problems, "%s: alloc: %v", prog, err)
					return
				}
				img := images[ki]
				for off := 0; off < len(img); off += 4096 {
					e.WriteMem(base+core.Addr(off), img[off:off+4096])
				}
				if got := k.pass(e, base, passes); got != refs[ki][passes] {
					problemf(&ep.problems, "%s: warm-up pass result %#x, want %#x", prog, got, refs[ki][passes])
				}
				warmed++
				for warmed < nproc && !m.expired() {
					e.Yield()
				}
				m.start()
				// The null call's span is named for the layer serving it.
				call := "guestos.Env.Null"
				if cloaked {
					call = "shim.Env.Null"
				}
				for j := 0; j < passes; j++ {
					req := p.tr.newReq()
					op := p.tr.begin("op."+k.name, -1, req)
					t0 := time.Now()
					got := k.pass(e, base, j)
					d := time.Since(t0)
					p.tr.end(op)
					results[ki][mode][j] = got
					m.op(d, got == refs[ki][j])
					id := p.tr.begin(call, -1, req)
					e.Null()
					p.tr.end(id)
					if j+1 < passes {
						e.Yield()
					}
				}
				finished++
				if finished == nproc {
					m.stop()
				}
				e.Exit(0)
			})
			spawn(ep, sys, prog, cloaked)
		}
	}
	runSystem(p.tr, sys)
	m.finish()
	for ki, k := range ks {
		for j := 0; j < passes; j++ {
			if nat, clk := results[ki][0][j], results[ki][1][j]; nat != clk {
				problemf(&ep.problems, "%s pass %d: cloaked result %#x differs from native %#x", k.name, j, clk, nat)
			}
		}
	}
	if n := ep.counters[sim.CtrPageEncrypt]; n != 0 {
		problemf(&ep.problems, "cpu-mix encrypted %d pages in the measured phase, want 0", n)
	}
	if n := ep.counters[sim.CtrPageOut] + ep.counters[sim.CtrPageIn]; n != 0 {
		problemf(&ep.problems, "cpu-mix paged %d times in the measured phase, want 0", n)
	}
	return ep
}
