package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
)

// A minimal reader for the gzipped protocol-buffer profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto). The module takes no
// dependencies, so this decodes just the fields layer attribution needs:
// samples (location ids, values), locations (lines), functions (name, file)
// and the string table.

type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field: its number, wire type, and either the
// varint value (wire type 0) or the payload (wire type 2).
func (r *pbReader) next() (num int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: unknown wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints appends a repeated uint64 field, packed (wire 2) or not (wire 0).
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := pbReader{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type pbSample struct {
	locs   []uint64
	values []uint64
}

// profileSample is one CPU sample: its count and its stack, leaf first.
type profileSample struct {
	Count int64
	Stack []frame
}

// parseProfile decodes a gzipped pprof profile into samples with resolved
// stacks. Inlined calls are expanded, innermost first.
func parseProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples []pbSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64][2]int64{} // id -> (name, filename) string indexes
		strs    []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, wire, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch {
		case num == 2 && wire == 2:
			var s pbSample
			p := pbReader{data}
			for len(p.b) > 0 {
				n, w, v, d, err := p.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					s.values, err = uints(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case num == 4 && wire == 2:
			var id uint64
			var fns []uint64
			p := pbReader{data}
			for len(p.b) > 0 {
				n, _, v, d, err := p.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					var fn uint64
					q := pbReader{d}
					for len(q.b) > 0 {
						m, _, lv, _, err := q.next()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							fn = lv
						}
					}
					fns = append(fns, fn)
				}
			}
			locs[id] = fns
		case num == 5 && wire == 2:
			var id uint64
			var name, file int64
			p := pbReader{data}
			for len(p.b) > 0 {
				n, _, v, _, err := p.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
			}
			funcs[id] = [2]int64{name, file}
		case num == 6 && wire == 2:
			strs = append(strs, string(data))
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		ps := profileSample{Count: 1}
		if len(s.values) > 0 {
			ps.Count = int64(s.values[0])
		}
		for _, id := range s.locs {
			for _, fn := range locs[id] {
				f := funcs[fn]
				ps.Stack = append(ps.Stack, frame{str(f[0]), str(f[1])})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// pcFrames resolves a runtime call stack (as runtime.MemProfile records
// it) into frames, leaf first.
func pcFrames(pcs []uintptr) []frame {
	var out []frame
	fs := runtime.CallersFrames(pcs)
	for {
		f, more := fs.Next()
		out = append(out, frame{f.Function, f.File})
		if !more {
			break
		}
	}
	return out
}
