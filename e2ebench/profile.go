package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped protobuf that runtime/pprof writes and
// charges every CPU sample to one layer. Only the fields attribution needs
// are decoded: samples, locations with their (inlined) lines, functions
// and the string table.

// modulePrefix is the import path prefix of the repository's layers.
const modulePrefix = "mcommerce/internal/"

// Layers are the repository's modules, plus the two runtime buckets.
// Every sample lands in exactly one of them.
var layers = []string{
	"simnet", "wireless", "cellular", "mtcp", "wap", "imode", "markup",
	"webserver", "apps", "database", "security", "device", "repl",
	"mobiledb", "workload", "core", "metrics", "trace", "obs", "faults",
	"experiments",
	// other: a module outside the list above (adhoc, mobileip).
	"other",
	// runtime: no module frame at all (scheduler, lane parking, profiler).
	"runtime",
	// runtime.gc: background GC work, whoever caused it.
	"runtime.gc",
}

// gcRoots are the entry functions of the runtime's background GC
// goroutines; a sample whose stack holds one is GC work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// chargeTo names the layer a sample is charged to, given its frames
// innermost first: GC background work goes to runtime.gc; otherwise the
// innermost frame inside a repository module names the layer, so runtime
// work such as allocation is charged to the module that asked for it;
// a stack with no module frame is charged to runtime.
func chargeTo(frames []string) string {
	for _, f := range frames {
		for _, root := range gcRoots {
			if strings.HasPrefix(f, root) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, modulePrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	return "runtime"
}

// cpuProfile is the decoded part of a pprof CPU profile.
type cpuProfile struct {
	samples []pprofSample
	// locFuncs maps a location to its function ids, innermost inlined
	// frame first (the order pprof stores lines in).
	locFuncs map[uint64][]uint64
	funcName map[uint64]string
}

type pprofSample struct {
	locs  []uint64 // leaf first
	count int64    // the first value: how many samples had this stack
}

// frames returns a sample's function names, innermost first.
func (p *cpuProfile) frames(s pprofSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			out = append(out, p.funcName[fn])
		}
	}
	return out
}

// attribution counts a profile's samples per layer.
type attribution map[string]int64

// add charges every sample of p.
func (a attribution) add(p *cpuProfile) {
	for _, s := range p.samples {
		a[chargeTo(p.frames(s))] += s.count
	}
}

func (a attribution) total() int64 {
	var n int64
	for _, v := range a {
		n += v
	}
	return n
}

// parseCPUProfile decodes a gzipped (or raw) pprof protobuf.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{}
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s pprofSample
			var vals []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1: // location_id
					return appendPacked(&s.locs, v, b)
				case 2: // value
					return appendPacked(&vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1: // id
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 { // function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1: // id
					id = v
				case 2: // name, a string table index
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, i := range funcStr {
		if i >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, i, len(strs))
		}
		p.funcName[id] = strs[i]
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either as
// one varint (v) or packed into bytes (b).
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
