package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof CPU profiles runtime/pprof writes
// (gzip-compressed profile.proto), enough to roll samples up by package.

// profSample is one profile sample: CPU nanoseconds and its stack as
// function names, leaf first (inlined frames expanded).
type profSample struct {
	nanos int64
	stack []string
}

// pbField is one decoded protobuf field: varint fields carry v, length-
// delimited ones carry b.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("pprof: bad varint")
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errors.New("pprof: truncated field")
			}
			f.b, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzip-compressed CPU profile. An empty input (a
// measured phase too short to take a sample) yields no samples.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct{ locs, vals []uint64 }
	var raws []rawSample
	for _, f := range fields {
		switch f.num {
		case 2: // sample
			sf, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, x := range sf {
				ints, err := pbInts(x)
				if err != nil {
					return nil, err
				}
				switch x.num {
				case 1:
					s.locs = append(s.locs, ints...)
				case 2:
					s.vals = append(s.vals, ints...)
				}
			}
			raws = append(raws, s)
		case 4: // location
			lf, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range lf {
				switch x.num {
				case 1:
					id = x.v
				case 4: // line: function_id is field 1
					line, err := pbFields(x.b)
					if err != nil {
						return nil, err
					}
					for _, y := range line {
						if y.num == 1 {
							fns = append(fns, y.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			ff, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range ff {
				switch x.num {
				case 1:
					id = x.v
				case 2:
					name = x.v
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.b))
		}
	}
	out := make([]profSample, 0, len(raws))
	for _, s := range raws {
		if len(s.vals) < 2 {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		ps := profSample{nanos: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// packageOf returns the import path of a qualified Go function name such as
// "overshadow/internal/sim.(*Clock).advance".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf charges a sample to the nearest module frame, leaf first: the
// simulator's internal package, or "bench" for the benchmark itself. So
// sync, map, allocation and crypto frames count against the module that
// called them. A stack with no module frame (GC workers, the scheduler,
// the profiler) is "runtime".
func layerOf(stack []string) string {
	const internal = "overshadow/internal/"
	for _, fn := range stack {
		pkg := packageOf(fn)
		switch {
		case strings.HasPrefix(pkg, internal):
			layer, _, _ := strings.Cut(pkg[len(internal):], "/")
			return layer
		case pkg == "main":
			return "bench"
		}
	}
	return "runtime"
}

// schedFrames are the Go scheduler functions whose samples count as
// runtime.sched_s: goroutine parking, hand-off and finding work.
var schedFrames = map[string]bool{
	"runtime.schedule":     true,
	"runtime.findRunnable": true,
	"runtime.park_m":       true,
	"runtime.goready":      true,
	"runtime.gopark":       true,
	"runtime.wakep":        true,
	"runtime.stopm":        true,
	"runtime.startm":       true,
}

func inScheduler(stack []string) bool {
	for _, fn := range stack {
		if schedFrames[fn] {
			return true
		}
	}
	return false
}
