package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// hostShareLayers are the layers a CPU sample can be attributed to. A
// sample goes to the innermost frame (leaf first) that belongs to one of
// them, so time in runtime.memmove called from tcpeng counts for tcpeng;
// "runtime" takes samples with no repository frame at all (GC workers,
// scheduler), "harness" takes what is left (this package and the bed
// builders). The shares therefore sum to 1.
var hostShareLayers = []string{
	"sim", "ipc", "bufpool", "proto", "wire", "nicdev", "ipeng", "tcpeng",
	"steer", "socketlib", "stack", "core", "app", "runtime", "harness",
}

// profiler takes one CPU profile per start/stop interval — the intervals
// the hostMeter covers — and folds the samples of all of them by layer. A
// nil *profiler does nothing.
type profiler struct {
	buf     bytes.Buffer
	samples map[string]int64
	total   int64
	err     error
}

func newProfiler() *profiler { return &profiler{samples: map[string]int64{}} }

func (p *profiler) start() {
	if p == nil || p.err != nil {
		return
	}
	p.buf.Reset()
	p.err = pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() {
	if p == nil || p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	p.err = p.fold(p.buf.Bytes())
}

// shares returns each layer's fraction of the samples taken.
func (p *profiler) shares() map[string]float64 {
	out := map[string]float64{}
	if p == nil || p.total == 0 {
		return out
	}
	for _, l := range hostShareLayers {
		out[l] = float64(p.samples[l]) / float64(p.total)
	}
	return out
}

// layerOf maps a function name to its layer: "" for a repository function
// outside hostShareLayers (folded into its caller), "runtime" for
// everything that is not repository code.
func layerOf(fn string) string {
	const prefix = "neat/internal/"
	if strings.HasPrefix(fn, prefix) {
		rest := fn[len(prefix):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, l := range hostShareLayers {
			if l == rest {
				return l
			}
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "neat/") {
		return ""
	}
	return "runtime"
}

// fold adds the samples of one gzipped pprof profile.
func (p *profiler) fold(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range prof.samples {
		layer, repo := "", false
	walk:
		for _, loc := range s.locs {
			for _, fnID := range prof.locFuncs[loc] {
				switch l := layerOf(prof.strings[prof.funcName[fnID]]); l {
				case "runtime": // keep climbing to whoever called into the runtime
				case "":
					repo = true
				default:
					layer = l
					break walk
				}
			}
		}
		// No frame of a listed layer: repository glue is the harness, a
		// pure runtime stack (GC worker, scheduler) is the runtime.
		if layer == "" {
			layer = "runtime"
			if repo {
				layer = "harness"
			}
		}
		p.samples[layer] += s.value
		p.total += s.value
	}
	return nil
}

// The reader below decodes just enough of the pprof protobuf
// (github.com/google/pprof/proto/profile.proto) to fold samples by
// function name: Profile.sample/location/function/string_table,
// Sample.location_id/value, Location.id/line, Line.function_id,
// Function.id/name. It keeps the harness free of module dependencies and
// of a `go tool pprof` subprocess.

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // first sample value (the sample count)
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

var errTruncated = errors.New("truncated protobuf")

// pbField reads one field header and payload. Varint fields return their
// value in v; length-delimited fields return their bytes in b.
func pbField(buf []byte) (num int, wire int, v uint64, b []byte, rest []byte, err error) {
	key, n := pbVarint(buf)
	if n == 0 {
		return 0, 0, 0, nil, nil, errTruncated
	}
	buf = buf[n:]
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, n = pbVarint(buf)
		if n == 0 {
			return 0, 0, 0, nil, nil, errTruncated
		}
		return num, wire, v, nil, buf[n:], nil
	case 1:
		if len(buf) < 8 {
			return 0, 0, 0, nil, nil, errTruncated
		}
		return num, wire, 0, nil, buf[8:], nil
	case 2:
		l, n := pbVarint(buf)
		if n == 0 || uint64(len(buf)-n) < l {
			return 0, 0, 0, nil, nil, errTruncated
		}
		return num, wire, 0, buf[n : n+int(l)], buf[n+int(l):], nil
	case 5:
		if len(buf) < 4 {
			return 0, 0, 0, nil, nil, errTruncated
		}
		return num, wire, 0, nil, buf[4:], nil
	}
	return 0, 0, 0, nil, nil, fmt.Errorf("unsupported protobuf wire type %d", wire)
}

func pbVarint(buf []byte) (uint64, int) {
	var v uint64
	for i, c := range buf {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated appends the values of a repeated varint field, packed or not.
func pbRepeated(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func parseProfile(buf []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	for len(buf) > 0 {
		num, _, _, b, rest, err := pbField(buf)
		if err != nil {
			return nil, err
		}
		buf = rest
		switch num {
		case 2: // sample
			var s profSample
			var values []uint64
			for len(b) > 0 {
				n, w, v, bb, r, err := pbField(b)
				if err != nil {
					return nil, err
				}
				b = r
				switch n {
				case 1:
					s.locs = pbRepeated(s.locs, w, v, bb)
				case 2:
					values = pbRepeated(values, w, v, bb)
				}
			}
			if len(values) > 0 {
				s.value = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			for len(b) > 0 {
				n, _, v, bb, r, err := pbField(b)
				if err != nil {
					return nil, err
				}
				b = r
				switch n {
				case 1:
					id = v
				case 4: // line
					for len(bb) > 0 {
						ln, _, lv, _, lr, err := pbField(bb)
						if err != nil {
							return nil, err
						}
						bb = lr
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			for len(b) > 0 {
				n, _, v, _, r, err := pbField(b)
				if err != nil {
					return nil, err
				}
				b = r
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}
