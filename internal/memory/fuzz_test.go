package memory

import (
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// refMemory is the reference model FuzzMemory checks the flat memory
// against: one separately allocated byte slice per region and a linear
// region search per access, the way this package resolved addresses
// before it kept one span. It records the software accesses the memory
// must report to an armed sink.
type refMemory struct {
	regions []refRegion
	got     []access
}

type refRegion struct {
	spec RegionSpec
	data []byte
}

func newRef(specs ...RegionSpec) (*refMemory, error) {
	if len(specs) == 0 {
		return nil, errors.New("no regions")
	}
	sorted := append([]RegionSpec(nil), specs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Base < sorted[b].Base })
	r := &refMemory{}
	for i, s := range sorted {
		if s.Size == 0 {
			return nil, ErrEmptyRegion
		}
		if s.End() > 1<<16 {
			return nil, errors.New("beyond the address space")
		}
		if i > 0 && uint32(s.Base) < sorted[i-1].End() {
			return nil, ErrOverlap
		}
		r.regions = append(r.regions, refRegion{spec: s, data: make([]byte, s.Size)})
	}
	return r, nil
}

// find resolves addr to its region and offset.
func (r *refMemory) find(addr uint16) (*refRegion, int, error) {
	for i := range r.regions {
		g := &r.regions[i]
		if addr >= g.spec.Base && uint32(addr) < g.spec.End() {
			return g, int(addr - g.spec.Base), nil
		}
	}
	return nil, 0, ErrOutOfRange
}

// word resolves a word whose two bytes must lie in one region.
func (r *refMemory) word(addr uint16) (*refRegion, int, error) {
	g, off, err := r.find(addr)
	if err == nil && off+1 >= len(g.data) {
		err = ErrOutOfRange
	}
	return g, off, err
}

func (r *refMemory) setByte(addr uint16, b byte) error {
	g, off, err := r.find(addr)
	if err != nil {
		return err
	}
	r.got = append(r.got, access{addr, 1, true})
	g.data[off] = b
	return nil
}

func (r *refMemory) read(addr uint16) (uint16, error) {
	g, off, err := r.word(addr)
	if err != nil {
		return 0, err
	}
	r.got = append(r.got, access{addr, 2, false})
	return uint16(g.data[off])<<8 | uint16(g.data[off+1]), nil
}

func (r *refMemory) write(addr, v uint16) error {
	g, off, err := r.word(addr)
	if err != nil {
		return err
	}
	r.got = append(r.got, access{addr, 2, true})
	g.data[off], g.data[off+1] = byte(v>>8), byte(v)
	return nil
}

func (r *refMemory) flip(addr uint16, bit uint8) error {
	if bit > 7 {
		return ErrBit
	}
	g, off, err := r.find(addr)
	if err != nil {
		return err
	}
	g.data[off] ^= 1 << bit
	return nil
}

func (r *refMemory) snapshot() [][]byte {
	out := make([][]byte, len(r.regions))
	for i, g := range r.regions {
		out[i] = append([]byte(nil), g.data...)
	}
	return out
}

func (r *refMemory) restore(snap [][]byte) error {
	if len(snap) != len(r.regions) {
		return errors.New("layout mismatch")
	}
	for i := range r.regions {
		copy(r.regions[i].data, snap[i])
	}
	return nil
}

// fuzzLayout decodes 1-3 regions from b. Each region takes five bytes:
// a flag byte, a 16-bit address and a 16-bit size (taken modulo 4096, so
// that an input stays cheap). With the flag's low bit set the address is
// a gap after the previous region's end (0 makes the regions adjacent),
// otherwise it is the absolute base.
func fuzzLayout(b []byte) []RegionSpec {
	if len(b) == 0 {
		return nil
	}
	n := 1 + int(b[0])%3
	b = b[1:]
	var specs []RegionSpec
	end := uint32(0)
	for i := 0; i < n; i++ {
		var rec [5]byte
		b = b[copy(rec[:], b):]
		base := uint32(binary.BigEndian.Uint16(rec[1:]))
		if rec[0]&1 != 0 {
			base = end + base%64
		}
		s := RegionSpec{Name: string(rune('a' + i)), Base: uint16(base), Size: binary.BigEndian.Uint16(rec[3:]) % 4096}
		specs = append(specs, s)
		end = s.End()
	}
	return specs
}

// sameErr fails unless got and want are both nil, or both errors of
// the same class.
func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
	for _, class := range []error{ErrOutOfRange, ErrBit, ErrOverlap, ErrEmptyRegion} {
		if errors.Is(got, class) != errors.Is(want, class) {
			t.Fatalf("%s: error %v, reference %v", what, got, want)
		}
	}
}

// FuzzMemory checks the flat memory against the region-search reference
// model: the same layouts are accepted, and a sequence of software
// accesses, bit-flips, bindings and image captures and restores returns
// the same values and errors, reports the same accesses to the sink and
// leaves the same bytes. Each operation takes five bytes: an opcode, a
// 16-bit address and a 16-bit value; the first 256 are run. An opcode
// with its high bit set
// reads the address as an offset into the layout's span (and the two
// bytes past it), so region edges and gaps are drawn often.
func FuzzMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, layout, ops []byte) {
		specs := fuzzLayout(layout)
		ref, rerr := newRef(specs...)
		m, err := New(specs...)
		sameErr(t, "New", err, rerr)
		if err != nil {
			return
		}
		var want []RegionSpec
		for _, g := range ref.regions {
			want = append(want, g.spec)
		}
		if got := m.Regions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Regions() = %v, reference %v", got, want)
		}
		lo := uint32(want[0].Base)
		span := want[len(want)-1].End() - lo

		sink := &recordSink{}
		m.SetAccessSink(sink)
		var img Image
		var snap [][]byte
		ops = ops[:min(len(ops), 5*256)]
		for ; len(ops) >= 5; ops = ops[5:] {
			op, addr, v := ops[0], binary.BigEndian.Uint16(ops[1:]), binary.BigEndian.Uint16(ops[3:])
			if op&0x80 != 0 {
				addr = uint16(lo + uint32(addr)%(span+2))
			}
			switch op % 8 {
			case 0:
				sameErr(t, "SetByteAt", m.SetByteAt(addr, byte(v)), ref.setByte(addr, byte(v)))
			case 1, 2:
				x, ok := m.Word(addr)
				_, _, rerr := ref.word(addr)
				if ok != (rerr == nil) {
					t.Fatalf("Word(%#04x): ok %v, reference %v", addr, ok, rerr)
				}
				if !ok {
					continue
				}
				if op%8 == 2 {
					x.Set(v)
					ref.write(addr, v)
					continue
				}
				exp, _ := ref.read(addr)
				if got := x.Get(); got != exp {
					t.Fatalf("Word(%#04x).Get() = %#04x, reference %#04x", addr, got, exp)
				}
			case 3:
				bit := uint8(v % 10)
				sameErr(t, "FlipBit", m.FlipBit(addr, bit), ref.flip(addr, bit))
			case 4, 5:
				x, err := Bind(m, "x", addr)
				_, _, rerr := ref.word(addr)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("Bind(%#04x): error %v, reference %v", addr, err, rerr)
				}
				if err != nil {
					continue
				}
				if op%8 == 5 {
					x.Set(v)
					ref.write(addr, v)
					continue
				}
				exp, _ := ref.read(addr)
				if got := x.Get(); got != exp {
					t.Fatalf("Var16(%#04x).Get() = %#04x, reference %#04x", addr, got, exp)
				}
			case 6:
				m.Capture(&img)
				snap = ref.snapshot()
			case 7:
				sameErr(t, "RestoreImage", m.RestoreImage(&img), ref.restore(snap))
			}
		}

		if !reflect.DeepEqual(sink.got, ref.got) {
			t.Fatalf("sink saw %v, reference %v", sink.got, ref.got)
		}
		m.SetAccessSink(nil)
		for i, tag := range m.tag {
			if tag == 0 && m.data[i] != 0 {
				t.Fatalf("gap byte %#04x = %#02x", lo+uint32(i), m.data[i])
			}
		}
		for _, g := range ref.regions {
			for i, b := range g.data {
				addr := g.spec.Base + uint16(i)
				if got := byteAt(m, addr); got != b {
					t.Fatalf("byte %#04x = %#02x, reference %#02x", addr, got, b)
				}
			}
		}
	})
}
