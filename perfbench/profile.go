package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// Layers are the program's modules as the benchmark reports them.
var layers = []string{
	"sim", "sim.shard", "timerwheel", "core", "kernel", "nic",
	"netstack", "httpserv", "topology", "runtime",
}

const modulePrefix = "softtimers/internal/"

// foldedPackages are small modules counted with their callers.
var foldedPackages = map[string]bool{"cpu": true, "workloads": true, "stats": true, "metrics": true}

// moduleOf names the layer a function belongs to. fold reports a frame
// that carries no layer of its own and is charged to its caller: the
// folded modules, non-runtime standard library, and runtime code that is
// neither the allocator nor the collector (map access, memmove, channel
// operations — the caller's work).
func moduleOf(fn string) (layer string, fold bool) {
	switch {
	case strings.HasPrefix(fn, modulePrefix):
		rest := fn[len(modulePrefix):]
		pkg := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			pkg = rest[:i]
		}
		switch {
		case foldedPackages[pkg]:
			return "", true
		case pkg == "sim" && (strings.Contains(rest, "ShardGroup") || strings.Contains(rest, "(*shard)") || strings.Contains(rest, "Conduit")):
			return "sim.shard", false
		case pkg == "host":
			return "topology", false
		}
		return pkg, false
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "runtime/pprof."),
		strings.HasPrefix(fn, "runtime.") && isMemProfile(fn[len("runtime."):]):
		return "bench", false
	case strings.HasPrefix(fn, "runtime.") && isAllocOrGC(fn[len("runtime."):]):
		return "runtime", false
	}
	return "", true
}

// gcAllocNames mark runtime functions that belong to the allocator or the
// garbage collector.
var gcAllocNames = []string{
	"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"gc", "GC", "mark", "Mark", "scan", "sweep", "Sweep", "heap", "Heap",
	"span", "mcache", "mcentral", "mheap", "alloc", "Alloc", "memclrNoHeapPointers",
	"wbBuf", "WriteBarrier", "bulkBarrier", "greyobject", "findObject", "scavenge",
	"typePointers",
}

// memProfileNames mark the runtime's allocation-profile bookkeeping, which
// the traced run turns on: its cost is the benchmark's.
var memProfileNames = []string{"mProf", "profilealloc", "stkbucket"}

func isMemProfile(name string) bool {
	for _, s := range memProfileNames {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

func isAllocOrGC(name string) bool {
	for _, s := range gcAllocNames {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// attribute charges one stack, leaf first, to a layer: the first frame
// that does not fold. A stack of folded frames only (scheduler, idle
// workers) is the runtime's.
func attribute(stack []string) string {
	for _, fn := range stack {
		if layer, fold := moduleOf(fn); !fold {
			return layer
		}
	}
	return "runtime"
}

// attributeAlloc charges an allocation stack, leaf first, to the first
// program or benchmark frame: every runtime frame there is the allocator
// serving its caller.
func attributeAlloc(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") {
			continue
		}
		if layer, fold := moduleOf(fn); !fold {
			return layer
		}
	}
	return "runtime"
}

// allocRecord is one allocation site's cumulative bytes.
type allocRecord struct {
	stack [32]uintptr
	bytes int64
}

// allocProfile reads the runtime's sampled allocation profile. The profile
// is current as of the last completed GC, so callers run one first.
func allocProfile() []allocRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+50)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			out := make([]allocRecord, m)
			for i := range recs[:m] {
				out[i] = allocRecord{stack: recs[i].Stack0, bytes: recs[i].AllocBytes}
			}
			return out
		}
		n = m
	}
}

// allocShares attributes the bytes allocated between two profiles to
// layers and returns each layer's share of the program's total: the
// benchmark's own allocations (profiling, spans) are left out of it.
func allocShares(before, after []allocRecord) (map[string]float64, int64) {
	// The runtime keeps one record per (stack, size), so sum per stack.
	sum := func(recs []allocRecord) map[[32]uintptr]int64 {
		m := make(map[[32]uintptr]int64, len(recs))
		for _, r := range recs {
			m[r.stack] += r.bytes
		}
		return m
	}
	prev := sum(before)
	byLayer := map[string]int64{}
	var total int64
	for stack, bytes := range sum(after) {
		d := bytes - prev[stack]
		if d <= 0 {
			continue
		}
		layer := attributeAlloc(symbolize(stack[:]))
		if layer == "bench" {
			continue
		}
		byLayer[layer] += d
		total += d
	}
	return shares(byLayer, total), total
}

func symbolize(pcs []uintptr) []string {
	n := 0
	for n < len(pcs) && pcs[n] != 0 {
		n++
	}
	var out []string
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

func shares(byLayer map[string]int64, total int64) map[string]float64 {
	out := map[string]float64{}
	for l, v := range byLayer {
		if total > 0 {
			out[l] = float64(v) / float64(total)
		}
	}
	return out
}

// cpuShares decodes gzipped pprof CPU profiles and returns each layer's
// share of their sampled CPU time, plus the sample count.
func cpuShares(profiles []*bytes.Buffer) (map[string]float64, int64, error) {
	byLayer := map[string]int64{}
	var total, n int64
	for _, prof := range profiles {
		zr, err := gzip.NewReader(prof)
		if err != nil {
			return nil, 0, fmt.Errorf("open cpu profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, 0, fmt.Errorf("read cpu profile: %w", err)
		}
		p, err := parseProfile(raw)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range p.samples {
			if len(s.values) == 0 {
				continue
			}
			v := s.values[len(s.values)-1] // cpu nanoseconds
			var stack []string
			for _, id := range s.locations {
				for _, fid := range p.locations[id] {
					stack = append(stack, p.strings[p.functions[fid]])
				}
			}
			byLayer[attribute(stack)] += v
			total += v
			n += s.values[0]
		}
	}
	return shares(byLayer, total), n, nil
}

// The pprof profile.proto subset the attribution needs: samples with
// location ids and values, locations with their (inlined) function ids,
// functions with their name index, and the string table.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
}

var errProfile = errors.New("malformed cpu profile")

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locations, w, v, d)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.functions {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProfile
		}
	}
	return p, nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProfile
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks a protobuf message, handing each field's number, wire
// type, and varint value or length-delimited bytes to fn.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
