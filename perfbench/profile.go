package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"reflect"
	"runtime"
	"strings"

	"hwdp/internal/core"
)

// profileSample is one CPU profile sample reduced to what the fold needs:
// the source file of its leaf frame and its sample count.
type profileSample struct {
	leafFile string
	count    int64
}

// sourceRoots locates the module's and the Go runtime's source trees as
// this binary records them (absolute, or module-relative under -trimpath),
// from the file of a known function in each.
func sourceRoots() (module, goSrc string) {
	file := func(fn any) string {
		f, _ := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).FileLine(0)
		return f
	}
	module = strings.TrimSuffix(file(core.NewSystem), "internal/core/core.go")
	goSrc = strings.TrimSuffix(path.Dir(file(runtime.GC)), "runtime")
	return module, goSrc
}

// foldKey names the part of the program a leaf source file belongs to:
// the internal package directory for the model's layers ("fs", "kvs",
// "ssd" for internal/ssd/modeled too), "runtime" for the Go runtime, "std"
// for the rest of the standard library, the top directory for other
// module code, and "other" for anything else. It folds by directory, not
// function name, because inlined functions keep their caller's name
// (fs.SeededInit's closure is named workload.SetupFIO.SeededInit.func1).
func foldKey(file, module, goSrc string) string {
	switch {
	case strings.HasPrefix(file, module+"internal/"):
		rest := strings.TrimPrefix(file, module+"internal/")
		return rest[:max(strings.IndexByte(rest, '/'), 0)]
	case strings.HasPrefix(file, module):
		rest := strings.TrimPrefix(file, module)
		if i := strings.IndexByte(rest, '/'); i > 0 {
			return rest[:i]
		}
		return "root"
	case strings.HasPrefix(file, goSrc+"runtime/"):
		return "runtime"
	case strings.HasPrefix(file, goSrc):
		return "std"
	}
	return "other"
}

// fold sums sample counts per foldKey.
func fold(samples []profileSample, module, goSrc string) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		out[foldKey(s.leafFile, module, goSrc)] += s.count
	}
	return out
}

// parseProfile decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) into leaf-frame samples. It reads only the fields the
// fold needs: sample (location ids, value[0]), location (id, first line's
// function), function (id, filename) and the string table.
func parseProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []rawSample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcFile = map[uint64]int64{}  // function id -> filename string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id (1) and value (2), packed or not
			var locs, vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				if num != 1 && num != 2 {
					return nil
				}
				xs := []uint64{v}
				if wire == 2 {
					var err error
					if xs, err = packed(b); err != nil {
						return err
					}
				}
				if num == 1 {
					locs = append(locs, xs...)
				} else {
					vals = append(vals, xs...)
				}
				return nil
			})
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, rawSample{leaf: locs[0], count: int64(vals[0])})
			}
			return err
		case 4: // Location
			var id, fn uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && fn == 0: // the first line is the innermost frame
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var file int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcFile[id] = file
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		file := ""
		if i := funcFile[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			file = strs[i]
		}
		out = append(out, profileSample{leafFile: file, count: s.count})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of one protobuf message, passing
// varints as v and length-delimited fields as b. Fixed-width fields are
// skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}
