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

// cpuByLayer decodes a runtime/pprof CPU profile and assigns each
// sample's CPU time to a layer: "gc" when any frame is the Go runtime's
// garbage collector, otherwise the innermost lambdafs/internal/<module>
// frame, "gen" for the benchmark's own frames, and "other" for the rest
// (the Go scheduler outside yields, timers, syscalls). Values are
// nanoseconds.
func cpuByLayer(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		out[p.layerOf(s.locs)] += s.values[1]
	}
	return out, nil
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples   []pprofSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strs      []string
}

func (p *pprofProfile) name(fn uint64) string {
	i := p.funcNames[fn]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func (p *pprofProfile) layerOf(locs []uint64) string {
	var frames []string
	for _, l := range locs { // leaf first
		for _, fn := range p.locFuncs[l] {
			frames = append(frames, p.name(fn))
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") {
			return "gc"
		}
	}
	const internal = "lambdafs/internal/"
	for _, f := range frames {
		// Only internal/clock calls runtime.Gosched, and a yield's
		// scheduler work runs on a stack that no longer shows the caller.
		if f == "runtime.gosched_m" {
			return "clock"
		}
		if rest, ok := strings.CutPrefix(f, internal); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(f, "main.") {
			return "gen"
		}
	}
	return "other"
}

// decodeProfile reads the fields of profile.proto the attribution needs:
// Profile.sample (2), Profile.location (4), Profile.function (5) and
// Profile.string_table (6).
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s pprofSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, d); err != nil {
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
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
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
			p.funcNames[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
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

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
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
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
