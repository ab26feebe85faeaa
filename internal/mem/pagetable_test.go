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

func (r *refTable) mapFrame(from, to PFN, perms Perm) {
	for i := range r.nodes {
		r.nodes[i][from>>(27-9*i)] = true
	}
	r.entries[from] = Entry{From: from, To: to, Perms: perms}
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
// operand and an argument byte (permissions, access kind or page offset).
const (
	ptOpMap = iota
	ptOpUnmap
	ptOpLookupNone
	ptOpLookupRead
	ptOpLookupWrite
	ptOpTranslate
	ptOpClear
	ptNumOps

	ptStepLen = 6

	// ptRelative in the opcode byte keeps the previous step's level-4 node
	// and takes only the slot from x, so random inputs revisit the cached
	// node often.
	ptRelative = 0x80
)

func ptStep(op byte, x, to uint16, arg byte) []byte {
	return []byte{op, byte(x), byte(x >> 8), byte(to), byte(to >> 8), arg}
}

// ptFrame spreads a 16-bit operand over the radix, staying below 2^36:
// bits 0-9 pick a frame in two adjacent level-4 nodes, bits 10-11 one of
// four level-3 nodes, bits 12-13 one of four level-2 nodes, and bits 14-15
// move the top-level index up by 128s.
func ptFrame(x uint16) PFN {
	return PFN(x&0x3ff) | PFN(x>>10&3)<<18 | PFN(x>>12&3)<<27 | PFN(x>>14)<<34
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
// write), Translate and Clear, with targets up to 2^52-1 and every R/W/X
// combination. Every Walk must match the reference, LevelsTouched
// included, as must Unmap's and Translate's answers; after every step
// Mapped and the ForEachEntry sequence (order, targets, perms and A/D bits)
// must match too.
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
		ptStep(ptOpMap, 0xc000, 93, byte(PermRW)),
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		pt, ref := NewPageTable(), newRefTable()
		var prev PFN
		for step := 0; len(ops) >= ptStepLen; step++ {
			op, x, to, arg := (ops[0]&^ptRelative)%ptNumOps, binary.LittleEndian.Uint16(ops[1:]), ptTarget(binary.LittleEndian.Uint16(ops[3:])), ops[5]
			p := ptFrame(x)
			if ops[0]&ptRelative != 0 {
				p = prev&^0x1ff | PFN(x&0x1ff)
			}
			ops, prev = ops[ptStepLen:], p
			switch op {
			case ptOpMap:
				pt.Map(p, to, Perm(arg&7))
				ref.mapFrame(p, to, Perm(arg&7))
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
