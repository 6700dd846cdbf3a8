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

// The traced run folds a runtime/pprof CPU profile into host.<layer>
// shares. Each sample goes to one layer:
//
//   - gc: any frame belongs to the collector (mark, sweep, assists,
//     write barriers);
//   - alloc: the leaf is in the runtime and the stack runs through
//     runtime.mallocgc;
//   - sched: the leaf is in the runtime and the stack runs through
//     goroutine handoff (channel ops, park/ready, the scheduler, futex);
//   - otherwise the innermost frame of a known package: the sim kernel,
//     netsim, openflow, ... (sort.Strings called from switchcache counts
//     as switchcache), with the benchmark's own frames as bench;
//   - other: nothing above matched.

// hostLayers is the fixed set of host.<layer> shares, in report order.
var hostLayers = []string{
	"sim", "gc", "sched", "alloc", "netsim", "openflow", "switchcache", "controller",
	"harmonia", "transport", "core", "kvstore", "workload", "metrics", "bench", "other",
}

var layerOfPkg = map[string]string{
	"repro/internal/sim":         "sim",
	"repro/internal/netsim":      "netsim",
	"repro/internal/openflow":    "openflow",
	"repro/internal/switchcache": "switchcache",
	"repro/internal/controller":  "controller",
	"repro/internal/harmonia":    "harmonia",
	"repro/internal/transport":   "transport",
	"repro/internal/core":        "core",
	"repro/internal/kvstore":     "kvstore",
	"repro/internal/storage":     "kvstore",
	"repro/internal/workload":    "workload",
	"repro/internal/cluster":     "workload", // the traffic engine
	"repro/internal/metrics":     "metrics",
	"main":                       "bench",
}

var gcFuncPrefixes = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.markroot", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.greyobject", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.sweepone", "runtime.wbBufFlush",
	"runtime.gcWriteBarrier", "runtime.bulkBarrierPreWrite", "runtime.(*gcWork)",
	"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.GC",
}

var schedFuncs = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.send": true, "runtime.recv": true, "runtime.gopark": true,
	"runtime.goready": true, "runtime.ready": true, "runtime.schedule": true,
	"runtime.findRunnable": true, "runtime.mcall": true, "runtime.park_m": true,
	"runtime.goschedImpl": true, "runtime.gosched_m": true, "runtime.goexit0": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.semasleep": true,
	"runtime.semawakeup": true, "runtime.wakep": true, "runtime.startm": true,
	"runtime.stopm": true, "runtime.handoffp": true, "runtime.mstart": true,
	"runtime.mstart1": true, "runtime.stealWork": true, "runtime.runqgrab": true,
	"runtime.runqsteal": true, "runtime.usleep": true, "runtime.osyield": true,
	"runtime.sysmon": true, "runtime.lock2": true, "runtime.unlock2": true,
	"runtime.entersyscall": true, "runtime.exitsyscall": true,
}

// layerSamples counts CPU-profile samples per host layer.
type layerSamples map[string]int64

func (s *layerSamples) add(o layerSamples) {
	if *s == nil {
		*s = layerSamples{}
	}
	for k, v := range o {
		(*s)[k] += v
	}
}

// shares returns every host layer's fraction of the samples.
func (s layerSamples) shares() map[string]float64 {
	var total int64
	for _, v := range s {
		total += v
	}
	out := map[string]float64{}
	for _, l := range hostLayers {
		out[l] = frac(s[l], total)
	}
	return out
}

// pkgOf returns the package path of a symbol such as
// "repro/internal/sim.(*Proc).park" or "sort.Strings".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may contain paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "syscall"
}

// classify assigns one stack (leaf first) to a host layer.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, fn := range stack {
		for _, p := range gcFuncPrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	if isRuntime(pkgOf(stack[0])) {
		for _, fn := range stack {
			if fn == "runtime.mallocgc" {
				return "alloc"
			}
		}
		for _, fn := range stack {
			if schedFuncs[fn] {
				return "sched"
			}
		}
	}
	for _, fn := range stack {
		if l, ok := layerOfPkg[pkgOf(fn)]; ok {
			return l
		}
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and counts its samples
// per host layer.
func foldProfile(gz []byte) (layerSamples, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := layerSamples{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.funcName(fid))
			}
		}
		if len(s.values) > 0 {
			out[classify(stack)] += s.values[0]
		}
	}
	return out, nil
}

// The subset of profile.proto the fold needs.
type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcs    map[uint64]int64    // function ID -> name string index
	strings  []string
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, wt, v, data)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, wt, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field in either encoding.
func appendPacked(dst *[]uint64, wt int, v uint64, data []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks a protobuf message, passing varint values as v and
// length-delimited payloads as data.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}
