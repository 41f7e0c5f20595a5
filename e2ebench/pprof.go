package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A stdlib-only reader for the CPU profiles runtime/pprof writes: a gzipped
// protocol buffer (github.com/google/pprof/proto/profile.proto). It decodes
// only what self-time attribution needs: samples with their location stacks
// and values, locations with their (possibly inlined) function lines,
// function names, and the string table.

// cpuProfile is the decoded subset of one profile.
type cpuProfile struct {
	sampleTypes []valueType
	samples     []pprofSample
	locations   map[uint64][]uint64 // location id → function ids, innermost (inlined) first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type valueType struct{ typ, unit int64 }

type pprofSample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errProfile = errors.New("malformed CPU profile")

// parseCPUProfile decodes a gzipped profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errProfile, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errProfile, err)
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt valueType
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2: // sample
			var s pprofSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
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
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. Varint fields arrive
// in v, length-delimited fields in b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("%w: bad field key", errProfile)
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("%w: bad varint in field %d", errProfile, num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("%w: short fixed64", errProfile)
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("%w: bad length in field %d", errProfile, num)
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("%w: short fixed32", errProfile)
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("%w: wire type %d", errProfile, wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("%w: bad packed varint", errProfile)
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// attribute charges each sample's CPU time to the innermost stack frame
// (inlined frames included) for which classify returns a non-empty name;
// samples with no such frame go to fallback. It returns seconds per name.
func (p *cpuProfile) attribute(classify func(fn string) string, fallback string) (map[string]float64, error) {
	vi := -1
	for i, vt := range p.sampleTypes {
		if p.str(vt.unit) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("%w: no nanoseconds sample value", errProfile)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, fmt.Errorf("%w: sample has %d values", errProfile, len(s.values))
		}
		owner := fallback
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				if m := classify(p.str(p.functions[fid])); m != "" {
					owner = m
					break stack
				}
			}
		}
		out[owner] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

func (p *cpuProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}
