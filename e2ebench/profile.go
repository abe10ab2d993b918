package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto. The
// reader below decodes only the fields the attribution needs — samples
// (location ids and values), locations (their lines' function ids),
// functions (name string index), the string table and the sample types —
// with a minimal protobuf wire-format walker, so the benchmark needs no
// module beyond the standard library.

// profile is the decoded subset of a pprof profile.
type profile struct {
	sampleTypes []string  // "type/unit" per sample value index
	samples     []pSample // stack (leaf first) and values
	locations   map[uint64][]uint64
	functions   map[uint64]int64 // function id → name string index
	strings     []string
}

type pSample struct {
	locs   []uint64
	values []int64
}

// protoField is one decoded field: its number, wire type, and either a
// varint value or a length-delimited payload.
type protoField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// nextField decodes the field at the head of b and returns the rest.
func nextField(b []byte) (protoField, []byte, error) {
	key, n := uvarint(b)
	if n <= 0 {
		return protoField{}, nil, errors.New("bad field key")
	}
	b = b[n:]
	f := protoField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0: // varint
		v, n := uvarint(b)
		if n <= 0 {
			return f, nil, errors.New("bad varint")
		}
		f.value = v
		return f, b[n:], nil
	case 1: // fixed64
		if len(b) < 8 {
			return f, nil, errors.New("short fixed64")
		}
		return f, b[8:], nil
	case 2: // length-delimited
		l, n := uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return f, nil, errors.New("bad length")
		}
		f.bytes = b[n : n+int(l)]
		return f, b[n+int(l):], nil
	case 5: // fixed32
		if len(b) < 4 {
			return f, nil, errors.New("short fixed32")
		}
		return f, b[4:], nil
	}
	return f, nil, fmt.Errorf("unsupported wire type %d", f.wire)
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints appends a repeated varint field's values, packed or not.
func varints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// eachField calls fn for every field of message b.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		f, rest, err := nextField(b)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var typeIdx [][2]int64
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var vt [2]int64
			err := eachField(f.bytes, func(g protoField) error {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = int64(g.value)
				}
				return nil
			})
			typeIdx = append(typeIdx, vt)
			return err
		case 2: // sample: location_id=1, value=2
			var s pSample
			err := eachField(f.bytes, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = varints(s.locs, g)
				case 2:
					var vs []uint64
					vs, err = varints(nil, g)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: id=1, line=4 (Line{function_id=1})
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4:
					return eachField(g.bytes, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: id=1, name=2
			var id uint64
			var name int64
			err := eachField(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, vt := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(vt[0])+"/"+p.str(vt[1]))
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// stack returns the sample's function names, leaf first (inlined frames
// expanded, innermost first, as pprof orders a location's lines).
func (p *profile) stack(s pSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			out = append(out, p.str(p.functions[fn]))
		}
	}
	return out
}

// cpuBuckets lists the attribution buckets in report order. The simulator
// layers, core and its helpers, the serving layers, then the runtime's
// garbage collector and the residual.
var cpuBuckets = []string{
	"cache", "hier", "prefetch", "dram", "tlb", "sched", "noise", "attacks", "simmisc",
	"core", "payload", "rng", "crypto",
	"stats", "experiments", "runner", "resultstore",
	"daemon", "http_json",
	"runtime_gc", "other",
}

// layerPkgs are the streamline/internal packages with a bucket of their
// own; the other internal packages (pattern, mem, syncch, ecc, waypred,
// defense, evset, params) are simulator helpers and land in simmisc.
var layerPkgs = map[string]bool{
	"cache": true, "hier": true, "prefetch": true, "dram": true,
	"tlb": true, "sched": true, "noise": true, "attacks": true,
	"core": true, "payload": true, "rng": true, "stats": true,
	"experiments": true, "runner": true, "resultstore": true, "daemon": true,
}

// funcPackage returns the import path of a symbol name as pprof prints it
// ("streamline/internal/cache.(*Cache).Access" → "streamline/internal/cache").
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// frameBucket names the bucket a single frame belongs to, or "" when the
// frame is a shared helper (runtime, sync, fmt, os, ...) whose time is
// charged to the nearest caller that has a bucket.
func frameBucket(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "streamline/internal/"):
		rest := strings.TrimPrefix(pkg, "streamline/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if layerPkgs[rest] {
			return rest
		}
		return "simmisc"
	case strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case pkg == "encoding/json" || pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "http_json"
	}
	return ""
}

// isGC reports whether fn is a garbage-collector entry point: a sample
// whose stack contains one is GC work, wherever it was triggered.
func isGC(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.sweepone":
		return true
	}
	return false
}

// classify assigns one sample stack (leaf first) to a bucket: GC if any
// frame is a GC entry point, else the bucket of the innermost frame that
// has one (so a runtime helper such as mallocgc or memmove is charged to
// the layer that called it), else other.
func classify(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if b := frameBucket(fn); b != "" {
			return b
		}
	}
	return "other"
}

// cpuByBucket sums the profile's CPU time per bucket, in seconds.
func cpuByBucket(p *profile) (map[string]float64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu/nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no cpu/nanoseconds samples (types %v)", p.sampleTypes)
	}
	ns := make(map[string]int64, len(cpuBuckets))
	for _, s := range p.samples {
		if vi < len(s.values) {
			ns[classify(p.stack(s))] += s.values[vi]
		}
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = float64(ns[b]) / 1e9
	}
	return out, nil
}
