package mem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
)

// refTable is FuzzPageTable's reference model: translations in a map, and
// the prefixes of the interior nodes Map has created since the last Clear,
// from which it derives how many nodes a walk visits.
type refTable struct {
	entries map[PFN]Entry
	nodes   [3]map[PFN]bool // prefixes p>>27, p>>18 and p>>9
}

func newRefTable() *refTable {
	r := &refTable{entries: map[PFN]Entry{}}
	for i := range r.nodes {
		r.nodes[i] = map[PFN]bool{}
	}
	return r
}

// mapFrame is Map: a frame past TableFrames is refused.
func (r *refTable) mapFrame(from, to PFN, perms Perm) bool {
	if from >= TableFrames {
		return false
	}
	for i := range r.nodes {
		r.nodes[i][from>>(27-9*i)] = true
	}
	r.entries[from] = Entry{From: from, To: to, Perms: perms}
	return true
}

// ensure is one page of a hypervisor's lazy fault-in, the page-at-a-time
// form of EnsureRun: a present entry that maps to to is stamped like a
// lookup, an absent one is mapped and, for a nonzero access, stamped. It
// reports false for a present entry that maps elsewhere, which it leaves
// alone.
func (r *refTable) ensure(from, to PFN, perms, access Perm) bool {
	if e, ok := r.entries[from]; ok {
		if e.To != to {
			return false
		}
		r.lookup(from, access)
		return true
	}
	r.mapFrame(from, to, perms&PermRWX)
	if access != 0 {
		r.lookup(from, access)
	}
	return true
}

// lookup is the walk a 4-level radix table performs: one level for the top
// node when the table is empty, otherwise the top node plus each node below
// it that exists on the frame's path.
func (r *refTable) lookup(from PFN, access Perm) Walk {
	w := Walk{LevelsTouched: 1}
	if len(r.nodes[0]) != 0 {
		for i := range r.nodes {
			if r.nodes[i][from>>(27-9*i)] {
				w.LevelsTouched++
			}
		}
	}
	e, ok := r.entries[from]
	if !ok {
		return w
	}
	e.Accessed = true
	if access.Has(PermWrite) && e.Perms.Has(PermWrite) {
		e.Dirty = true
	}
	r.entries[from] = e
	w.Present, w.PFN, w.Perms = true, e.To, e.Perms
	return w
}

func (r *refTable) sorted() []Entry {
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.From, b.From) })
	return out
}

// Page-table fuzz steps are ptStepLen-byte records: an opcode, a
// little-endian 16-bit frame operand x, a little-endian 16-bit target
// operand and an argument byte (permissions, access kind, page offset, or
// for a run the access kind in bits 0-1, R-X instead of RWX perms in bit 2
// and the length in bits 3-7, ptRunLen). The opcode byte's top two bits
// pick how x becomes a frame: ptFrame, ptWideFrame, or a slot of the
// previous step's level-4 node.
const (
	ptOpMap = iota
	ptOpUnmap
	ptOpLookupNone
	ptOpLookupRead
	ptOpLookupWrite
	ptOpTranslate
	ptOpClear
	ptOpEnsureRun
	ptNumOps

	ptStepLen = 6

	// ptRelative in the opcode byte keeps the previous step's level-4 node
	// and takes only the slot from x, so random inputs revisit the cached
	// node often.
	ptRelative = 0x80
	// ptWide in the opcode byte spreads x with ptWideFrame.
	ptWide = 0x40
)

func ptStep(op byte, x, to uint16, arg byte) []byte {
	return []byte{op, byte(x), byte(x >> 8), byte(to), byte(to >> 8), arg}
}

// ptFrame spreads a 16-bit operand over the radix: bits 0-9 pick a frame
// in two adjacent level-4 nodes, bits 10-11 one of four level-3 nodes, bits
// 12-13 one of four level-2 nodes, and bits 14-15 the top-level index 0,
// 256, 512 or 768. The last two lie at and past 2^36 (TableFrames), beyond
// a table's reach, where a top-level index masked to 9 bits would alias the
// first two.
func ptFrame(x uint16) PFN {
	return PFN(x&0x3ff) | PFN(x>>10&3)<<18 | PFN(x>>12&3)<<27 | PFN(x>>14)<<35
}

// ptWideFrame spreads a 16-bit operand four bits a level: bits 12-15 pick
// the top-level index, bits 8-11 the level-2 one, bits 4-7 the level-3 one
// and bits 0-3 the slot. So up to sixteen frames share a parent node at
// every level, more children than a small directory node holds.
func ptWideFrame(x uint16) PFN {
	return PFN(x>>12)<<27 | PFN(x>>8&0xf)<<18 | PFN(x>>4&0xf)<<9 | PFN(x&0xf)
}

// ptRunLen is a run step's length, 1 to 1,100 frames, from its argument
// byte: quadratic in bits 3-7, so short runs are common and the longest
// cross two level-4 nodes.
func ptRunLen(arg byte) int {
	k := int(arg >> 3)
	return 1 + k*k*1099/(31*31)
}

// ptTarget spreads a 16-bit operand over the 52 bits of a target frame:
// bits 14-15 pick a region, near 0, just past 2^32 (where a 32-bit field
// wraps), just below 2^52 (2^52-1 is the last frame of a 64-bit address)
// or in bits 38-51, and bits 0-13 the frame within it.
func ptTarget(y uint16) PFN {
	low := PFN(y & 0x3fff)
	switch y >> 14 {
	case 0:
		return low
	case 1:
		return 1<<32 | low
	case 2:
		return 1<<52 - 1 - low
	default:
		return low << 38
	}
}

// FuzzPageTable checks the radix table, with its last-leaf walk cache,
// against a map over interleaved Map, Unmap, Lookup (no access, read and
// write), Translate, Clear and EnsureRun, with source frames past 2^36,
// targets up to 2^52-1 and every R/W/X combination. Every Walk must match
// the reference, LevelsTouched included, as must Map's, Unmap's and
// Translate's answers. A run must handle as many frames as single-page
// ensure steps on the reference do before the first entry that maps
// elsewhere or TableFrames, and fail only at a from past TableFrames.
// After every step Mapped and the ForEachEntry sequence (order, targets,
// perms and A/D bits) must match too.
func FuzzPageTable(f *testing.F) {
	// A sequential run of mappings that crosses from one level-4 node into
	// the next, then lookups that alternate between the two nodes at the
	// same slot, where a cache keyed on the slot bits would answer wrongly.
	f.Add(bytes.Join([][]byte{
		ptStep(ptOpMap, 0x1fd, 1, byte(PermRW)),
		ptStep(ptOpMap, 0x1fe, 2, byte(PermRW)),
		ptStep(ptOpMap, 0x1ff, 3, byte(PermRead)),
		ptStep(ptOpMap, 0x200, 4, byte(PermRW)),
		ptStep(ptOpMap, 0x201, 5, byte(PermRWX)),
		ptStep(ptOpLookupWrite, 0x1ff, 0, 0),
		ptStep(ptOpLookupRead, 0x3ff, 0, 0),
		ptStep(ptOpLookupWrite, 0x200, 0, 0),
		ptStep(ptOpLookupRead, 0x000, 0, 0),
		ptStep(ptOpLookupNone, 0x1fd, 0, 0),
		ptStep(ptOpTranslate, 0x201, 0, byte(PermWrite)),
	}, nil))
	// Clear, then a lookup of the prefix the cache held, then a fresh Map
	// under that prefix.
	f.Add(bytes.Join([][]byte{
		ptStep(ptOpMap, 5, 50, byte(PermRW)),
		ptStep(ptOpLookupWrite, 5, 0, 0),
		ptStep(ptOpClear, 0, 0, 0),
		ptStep(ptOpLookupRead, 5, 0, 0),
		ptStep(ptOpLookupRead, 6, 0, 0),
		ptStep(ptOpMap, 7, 70, byte(PermRead)),
		ptStep(ptOpLookupWrite, 5, 0, 0),
		ptStep(ptOpLookupWrite, 7, 0, 0),
	}, nil))
	// Unmap of the cached entry, then lookups and a translation of it, and
	// a remap that must clear its A/D bits.
	f.Add(bytes.Join([][]byte{
		ptStep(ptOpMap, 0x1409, 90, byte(PermRW)),
		ptStep(ptOpLookupWrite, 0x1409, 0, 0),
		ptStep(ptOpUnmap, 0x1409, 0, 0),
		ptStep(ptOpLookupRead, 0x1409, 0, 0),
		ptStep(ptOpTranslate, 0x1409, 0, byte(PermRead)),
		ptStep(ptOpUnmap, 0x1409, 0, 0),
		ptStep(ptOpMap, 0x1409, 91, byte(PermRW)),
		ptStep(ptOpMap|ptRelative, 0x1ff, 92, byte(PermRW)),
		ptStep(ptOpLookupRead, 0x1409, 0, 0),
		ptStep(ptOpMap, 0x4000, 93, byte(PermRW)),
		ptStep(ptOpLookupWrite|ptRelative, 0x1ff, 0, 0),
	}, nil))
	// High targets, each under another permission combination, looked up
	// and translated: a packed entry that drops a target bit above bit 31,
	// or mixes the target into the A/D or permission bits, answers wrongly.
	const past32, top52, high38 = 1 << 14, 2 << 14, 3 << 14
	f.Add(bytes.Join([][]byte{
		ptStep(ptOpMap, 0x10, past32|5, 0),
		ptStep(ptOpMap, 0x11, top52, byte(PermRead)),
		ptStep(ptOpMap, 0x12, top52|1, byte(PermWrite)),
		ptStep(ptOpMap, 0x13, high38|0x3fff, byte(PermRW)),
		ptStep(ptOpMap, 0x14, past32, byte(PermExec)),
		ptStep(ptOpMap, 0x15, high38|1, byte(PermRead|PermExec)),
		ptStep(ptOpMap, 0x16, top52|0x3fff, byte(PermWrite|PermExec)),
		ptStep(ptOpMap, 0x17, 0x3fff, byte(PermRWX)),
		ptStep(ptOpLookupWrite, 0x11, 0, 0),
		ptStep(ptOpLookupWrite, 0x12, 0, 0),
		ptStep(ptOpLookupRead, 0x13, 0, 0),
		ptStep(ptOpLookupWrite, 0x16, 0, 0),
		ptStep(ptOpTranslate, 0x11, 0, 0xf1),
		ptStep(ptOpTranslate, 0x13, 0, 0xf3),
		ptStep(ptOpTranslate, 0x17, 0, 0xf6),
		ptStep(ptOpMap, 0x11, past32|1, byte(PermRW)),
		ptStep(ptOpLookupNone, 0x11, 0, 0),
	}, nil))
	// Runs: one across a level-4 node boundary over absent entries,
	// stamped for a write; runs over present entries with and without write
	// permission, for a read, a write and no access, which must still stamp
	// an entry remapped (so never accessed) accessed; one that stops at an
	// entry inside it that maps elsewhere and one that starts at it; a
	// 1,100-frame run across two boundaries with R-X perms, read; then
	// Map, a lookup and a run at 2^36+5, and a lookup of frame 5.
	const run = ptOpEnsureRun
	f.Add(bytes.Join([][]byte{
		ptStep(run, 0x1f0, 100, 2|20<<3),
		ptStep(ptOpMap, 0x1f4, 104, byte(PermRead)),
		ptStep(run, 0x1f2, 102, 1|4<<3),
		ptStep(run, 0x1f2, 102, 2|4<<3),
		ptStep(ptOpMap, 0x1f8, 108, byte(PermRW)),
		ptStep(run, 0x1f0, 100, 0|8<<3),
		ptStep(ptOpMap, 0x3c5, 999, byte(PermRW)),
		ptStep(run, 0x3c0, 0x100, 2|3<<3),
		ptStep(run, 0x3c5, 0x105, 2|3<<3),
		ptStep(ptOpLookupRead, 0x3c5, 0, 0),
		ptStep(run, 0x500, 7, 1|4|31<<3),
		ptStep(ptOpLookupWrite, 0x6ff, 0, 0),
		ptStep(ptOpMap, 0x8005, 99, byte(PermRW)),
		ptStep(ptOpLookupRead, 0x8005, 0, 0),
		ptStep(run, 0x8005, 99, 2|1<<3),
		ptStep(ptOpLookupRead, 0x0005, 0, 0),
	}, nil))
	// Directory nodes promoted at every level: a level-3 node, then a
	// level-2 node, then the top level gather nine or ten children each,
	// one past a small node's eight, with lookups of an absent sibling in
	// the same node just before and after its promotion (3, 2 and 1 levels
	// touched) and lookups of present children on both sides of it.
	wide := func(op byte, x uint16) []byte { return ptStep(op|ptWide, x, x, byte(PermRW)) }
	var promote [][]byte
	for _, lv := range []struct {
		shift  uint
		absent uint16
	}{{4, 0x00c0}, {8, 0x0c00}, {12, 0xc000}} {
		for i := uint16(0); i < 10; i++ {
			if i == 8 {
				promote = append(promote, wide(ptOpLookupWrite, lv.absent))
			}
			promote = append(promote, wide(ptOpMap, i<<lv.shift))
		}
		promote = append(promote,
			wide(ptOpLookupWrite, lv.absent),
			wide(ptOpLookupWrite, 9<<lv.shift),
			wide(ptOpLookupRead, 3<<lv.shift),
			wide(ptOpLookupNone, 7<<lv.shift|5))
	}
	f.Add(bytes.Join(promote, nil))
	// Clear after a promotion: a level-3 node promoted, cleared, then looked
	// up (an empty table), rebuilt one child at a time past its promotion
	// again, with an absent sibling and a present child looked up after.
	var cleared [][]byte
	for round := 0; round < 2; round++ {
		for i := uint16(0); i < 9; i++ {
			cleared = append(cleared, wide(ptOpMap, i<<4|uint16(round)))
		}
		cleared = append(cleared,
			wide(ptOpLookupWrite, 8<<4|uint16(round)),
			wide(ptOpClear, 0),
			wide(ptOpLookupRead, 8<<4|uint16(round)),
			wide(ptOpLookupRead, 0x00c0))
	}
	cleared = append(cleared, wide(ptOpMap, 0x00c0), wide(ptOpLookupRead, 0x00b0), wide(ptOpLookupWrite, 0x00c0))
	f.Add(bytes.Join(cleared, nil))
	f.Fuzz(func(t *testing.T, ops []byte) {
		pt, ref := NewPageTable(), newRefTable()
		var prev PFN
		for step := 0; len(ops) >= ptStepLen; step++ {
			op, x, to, arg := (ops[0]&^(ptRelative|ptWide))%ptNumOps, binary.LittleEndian.Uint16(ops[1:]), ptTarget(binary.LittleEndian.Uint16(ops[3:])), ops[5]
			p := ptFrame(x)
			switch {
			case ops[0]&ptRelative != 0:
				p = prev&^0x1ff | PFN(x&0x1ff)
			case ops[0]&ptWide != 0:
				p = ptWideFrame(x)
			}
			ops, prev = ops[ptStepLen:], p
			switch op {
			case ptOpMap:
				err := pt.Map(p, to, Perm(arg&7))
				if ok := ref.mapFrame(p, to, Perm(arg&7)); (err == nil) != ok {
					t.Fatalf("step %d: Map(%#x) error %v, reference accepts %v", step, p, err, ok)
				}
			case ptOpEnsureRun:
				n, perms, access := ptRunLen(arg), PermRWX&^(PermWrite*Perm(arg>>2&1)), Perm(arg&3)
				to = min(to, 1<<52-PFN(n)) // keep to+i a frame of a 64-bit address
				want := 0
				for p+PFN(want) < TableFrames && want < n && ref.ensure(p+PFN(want), to+PFN(want), perms, access) {
					want++
				}
				got, err := pt.EnsureRun(p, to, n, perms, access)
				if got != want || (err != nil) != (p >= TableFrames) {
					t.Fatalf("step %d: EnsureRun(%#x, %#x, %d, %s, %s) = %d, %v; reference handles %d", step, p, to, n, perms, access, got, err, want)
				}
			case ptOpUnmap:
				_, want := ref.entries[p]
				delete(ref.entries, p)
				if got := pt.Unmap(p); got != want {
					t.Fatalf("step %d: Unmap(%#x) = %v, reference %v", step, p, got, want)
				}
			case ptOpLookupNone, ptOpLookupRead, ptOpLookupWrite:
				access := [...]Perm{0, PermRead, PermWrite}[op-ptOpLookupNone]
				if got, want := pt.Lookup(p, access), ref.lookup(p, access); got != want {
					t.Fatalf("step %d: Lookup(%#x, %s) = %+v, reference %+v", step, p, access, got, want)
				}
			case ptOpTranslate:
				a, access := p.Base()+Addr(arg)*16, Perm(arg&7)
				got, err := pt.Translate(a, access)
				w := ref.lookup(p, access)
				ok := w.Present && w.Perms.Has(access)
				if (err == nil) != ok || ok && got != w.PFN.Base()+Addr(arg)*16 {
					t.Fatalf("step %d: Translate(%#x, %s) = %#x, %v; reference walk %+v", step, a, access, got, err, w)
				}
			case ptOpClear:
				pt.Clear()
				ref = newRefTable()
			}
			if got, want := pt.Mapped(), len(ref.entries); got != want {
				t.Fatalf("step %d: Mapped() = %d, reference %d", step, got, want)
			}
			var got []Entry
			pt.ForEachEntry(func(e Entry) { got = append(got, e) })
			if want := ref.sorted(); !slices.Equal(got, want) {
				t.Fatalf("step %d: ForEachEntry = %+v, reference %+v", step, got, want)
			}
		}
	})
}

// TestPageTableRefusesFramesPastReach: a frame at or above 2^36 used to
// alias the frame 2^36 below it, because the top level was indexed with
// from>>27&0x1ff. Map must refuse it and install nothing, so frame 5 stays
// absent and ForEachEntry lists nothing; Lookup must report it absent with
// one level touched, and EnsureRun must refuse it and stop a run short of
// it.
func TestPageTableRefusesFramesPastReach(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(1<<36+5, 99, PermRW); err == nil {
		t.Fatal("Map(2^36+5) accepted a frame past the table's reach")
	}
	if w := pt.Lookup(5, PermRead); w.Present {
		t.Fatalf("Lookup(5) = %+v after Map(2^36+5); the frame aliased", w)
	}
	pt.ForEachEntry(func(e Entry) { t.Errorf("ForEachEntry lists %+v", e) })
	if pt.Mapped() != 0 {
		t.Fatalf("Mapped() = %d, want 0", pt.Mapped())
	}
	if err := pt.Map(5, 50, PermRW); err != nil {
		t.Fatal(err)
	}
	if w := pt.Lookup(1<<36+5, PermRead); w != (Walk{LevelsTouched: 1}) {
		t.Fatalf("Lookup(2^36+5) = %+v, want absent with 1 level touched", w)
	}
	if n, err := pt.EnsureRun(1<<36, 0, 4, PermRW, 0); n != 0 || err == nil {
		t.Fatalf("EnsureRun(2^36, 4) = %d, %v; want 0 and an error", n, err)
	}
	if n, err := pt.EnsureRun(1<<36-2, 0, 4, PermRW, 0); n != 2 || err != nil {
		t.Fatalf("EnsureRun(2^36-2, 4) = %d, %v; want 2 frames handled", n, err)
	}
	if pt.Mapped() != 3 {
		t.Fatalf("Mapped() = %d, want 3", pt.Mapped())
	}
}
