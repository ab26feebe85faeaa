package mem

import "fmt"

// Perm is a page permission mask.
type Perm uint8

const (
	PermRead  Perm = 1 << 0
	PermWrite Perm = 1 << 1
	PermExec  Perm = 1 << 2
	PermRW         = PermRead | PermWrite
	PermRWX        = PermRead | PermWrite | PermExec
)

// Has reports whether every permission in want is granted.
func (p Perm) Has(want Perm) bool { return p&want == want }

func (p Perm) String() string {
	buf := []byte("---")
	if p.Has(PermRead) {
		buf[0] = 'r'
	}
	if p.Has(PermWrite) {
		buf[1] = 'w'
	}
	if p.Has(PermExec) {
		buf[2] = 'x'
	}
	return string(buf)
}

// PageTable is a real 4-level radix page table, 9 bits per level, mapping
// page frames in one address space to page frames in another. It serves as:
//
//   - an EPT (guest-physical → host-physical, CPU accesses),
//   - an IOMMU translation table (device DMA addresses → physical),
//   - the combined shadow table virtual-passthrough builds (Ln guest-physical
//     → L1 guest-physical, paper Figure 6).
//
// Walks traverse the actual radix structure so their cost (levels touched)
// is an output of the data structure, not a constant.
//
// Its memory follows the frames it maps: an interior node lists its first
// few children and grows into a 512-pointer array only when they overflow
// the list, while a level-4 leaf is always its 512 entries, so one mapping
// in an empty table costs 4.3 KiB.
//
// A PageTable is not safe for concurrent use, even by readers only: Lookup
// stamps A/D bits and updates the last-leaf cache.
type PageTable struct {
	root   *ptRoot // nil until the first mapping: an empty table costs no node
	mapped int
	// last caches the level-4 leaf a walk last reached, and lastKey its
	// prefix (from >> 9), so consecutive frames under one leaf skip the
	// descent. No generation guards it: nodes are freed or replaced only by
	// Clear, which drops it.
	last    *ptLeaf
	lastKey PFN
}

// ptLevels is the radix depth: 4 levels of 9 bits cover 48-bit addresses.
const ptLevels = 4

// TableFrames is the number of source frames a PageTable indexes: 4 levels
// of 9 bits, a 48-bit address space. Map and EnsureRun refuse a frame at or
// above it, and Lookup reports one absent.
const TableFrames PFN = 1 << (9 * ptLevels)

// ptRoot, ptMid and ptLow are the interior nodes, levels 1-3: each a
// smallArray of child pointers, 96 bytes until its ninth child promotes it
// to 512 pointers in 4 KiB. A child, once made, stays at its index until
// Clear, so which nodes exist, and so every walk, is the same as in a table
// of full nodes.
type (
	ptRoot = smallArray[*ptMid]
	ptMid  = smallArray[*ptLow]
	ptLow  = smallArray[*ptLeaf]
)

// ptLeaf is a level-4 node: 512 packed entries, 4 KiB with no pointer for
// the allocator to zero or the collector to scan. An entry follows Intel's
// EPT layout: R/W/X in bits 0-2 (the Perm bits), accessed in bit 8, dirty in
// bit 9, present in bit 11 (ignored by hardware) and the target frame in
// bits 12-63, which hold every frame of a 64-bit address.
type ptLeaf [512]uint64

const (
	pteAccessed   = 1 << 8
	pteDirty      = 1 << 9
	ptePresent    = 1 << 11
	pteFrameShift = 12
)

// NewPageTable returns an empty table. Its top-level node is allocated by
// the first mapping, so tables that are never populated (an idle vIOMMU
// domain, a shadow table with no DMA yet) cost only their header.
func NewPageTable() *PageTable {
	return &PageTable{}
}

// child returns d's child at index i, allocating it when absent.
func child[T any](d *smallArray[*T], i PFN) *T {
	p := d.slot(uint64(i))
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// Map installs a translation from frame from to frame to with the given
// permissions (only R, W and X are kept), building intermediate levels as
// needed. Remapping an existing entry overwrites it and clears its A/D bits.
// A frame at or above TableFrames is an error and installs nothing.
func (t *PageTable) Map(from, to PFN, perms Perm) error {
	if from >= TableFrames {
		return beyondTable(from)
	}
	e := &t.leafFor(from)[from&0x1ff]
	if *e&ptePresent == 0 {
		t.mapped++
	}
	*e = uint64(to)<<pteFrameShift | ptePresent | uint64(perms&PermRWX)
	return nil
}

func beyondTable(from PFN) error {
	return fmt.Errorf("mem: frame %#x beyond a page table's %d-bit reach", uint64(from), 9*ptLevels+PageShift)
}

// leafFor returns the level-4 leaf covering frame from, below TableFrames,
// building it and the levels above it when absent, and caches it.
func (t *PageTable) leafFor(from PFN) *ptLeaf {
	leaf, _ := t.levelFour(from)
	if leaf == nil {
		if t.root == nil {
			t.root = new(ptRoot)
		}
		mid := child(t.root, from>>27)
		low := child(mid, from>>18&0x1ff)
		leaf = child(low, from>>9&0x1ff)
		t.last, t.lastKey = leaf, from>>9
	}
	return leaf
}

// EnsureRun faults in frames [from, from+n) the way a hypervisor's lazy
// fault-in does one page at a time: it maps an absent entry to to+i with
// perms (only R, W and X are kept) and, when access is not zero, stamps it
// like Lookup(from+i, access); it stamps a present entry that maps to to+i
// like Lookup(from+i, access), accessed always and dirty when both the
// access and the entry allow write. It stops before the first present
// entry that maps elsewhere, and before TableFrames, and returns how many
// frames it handled; the entry it stopped at is left as it was. It
// descends once per level-4 leaf. A from at or above TableFrames is an
// error and installs nothing.
func (t *PageTable) EnsureRun(from, to PFN, n int, perms, access Perm) (int, error) {
	if from >= TableFrames {
		return 0, beyondTable(from)
	}
	n = int(min(PFN(max(n, 0)), TableFrames-from))
	write := access.Has(PermWrite)
	var leaf *ptLeaf
	for i := 0; i < n; i++ {
		p := from + PFN(i)
		if leaf == nil || p&0x1ff == 0 {
			leaf = t.leafFor(p)
		}
		want := uint64(to+PFN(i)) << pteFrameShift
		e := leaf[p&0x1ff]
		if e&ptePresent == 0 {
			e = want | ptePresent | uint64(perms&PermRWX)
			t.mapped++
			if access == 0 {
				leaf[p&0x1ff] = e
				continue
			}
		} else if e>>pteFrameShift<<pteFrameShift != want {
			return i, nil
		}
		e |= pteAccessed
		if write && e&uint64(PermWrite) != 0 {
			e |= pteDirty
		}
		leaf[p&0x1ff] = e
	}
	return n, nil
}

// Unmap removes a translation, reporting whether one existed.
func (t *PageTable) Unmap(from PFN) bool {
	leaf, _ := t.levelFour(from)
	if leaf == nil || leaf[from&0x1ff]&ptePresent == 0 {
		return false
	}
	leaf[from&0x1ff] = 0
	t.mapped--
	return true
}

// levelFour returns the level-4 leaf covering frame from, caching it, and
// the number of nodes a walk visits above it. A walk that stops early on a
// missing entry returns nil and the nodes it visited; an empty table counts
// its absent top level as one, as does a frame at or above TableFrames.
func (t *PageTable) levelFour(from PFN) (*ptLeaf, int) {
	if t.last != nil && t.lastKey == from>>9 {
		return t.last, ptLevels - 1
	}
	if t.root == nil || from >= TableFrames {
		return nil, 1
	}
	i := uint64(from)
	mid := t.root.get(i >> 27)
	if mid == nil {
		return nil, 1
	}
	low := mid.get(i >> 18 & 0x1ff)
	if low == nil {
		return nil, 2
	}
	leaf := low.get(i >> 9 & 0x1ff)
	if leaf == nil {
		return nil, 3
	}
	t.last, t.lastKey = leaf, from>>9
	return leaf, ptLevels - 1
}

// Walk describes the result of a page-table walk.
type Walk struct {
	// PFN is the translated frame (valid only when Present).
	PFN PFN
	// Perms are the leaf permissions.
	Perms Perm
	// Present reports whether a translation exists.
	Present bool
	// LevelsTouched counts radix nodes visited, including the one where the
	// walk terminated — the quantity exit handlers charge walk cycles for.
	// A missing top-level entry costs 1; a full walk costs 4.
	LevelsTouched int
}

// Lookup walks the table for frame from, setting accessed (and, for write
// access, dirty) bits like hardware A/D-bit tracking. A hit in the last-leaf
// cache reports the same Walk, LevelsTouched included, as the full descent.
// Lookup is on the exit path, so it checks the cache itself: a hit then
// costs no call, and levelFour, with its descent, is too large to inline.
func (t *PageTable) Lookup(from PFN, access Perm) Walk {
	leaf, levels := t.last, ptLevels-1
	if leaf == nil || t.lastKey != from>>9 {
		if leaf, levels = t.levelFour(from); leaf == nil {
			return Walk{LevelsTouched: levels}
		}
	}
	e := leaf[from&0x1ff]
	if e&ptePresent == 0 {
		return Walk{LevelsTouched: levels + 1}
	}
	perms := Perm(e & uint64(PermRWX))
	e |= pteAccessed
	if access.Has(PermWrite) && perms.Has(PermWrite) {
		e |= pteDirty
	}
	leaf[from&0x1ff] = e
	return Walk{PFN: PFN(e >> pteFrameShift), Perms: perms, Present: true, LevelsTouched: levels + 1}
}

// Translate converts a byte address through the table, preserving the page
// offset. It fails when no translation exists or the access permission is
// not granted.
func (t *PageTable) Translate(a Addr, access Perm) (Addr, error) {
	w := t.Lookup(PageOf(a), access)
	if !w.Present {
		return 0, fmt.Errorf("mem: no translation for %#x", uint64(a))
	}
	if !w.Perms.Has(access) {
		return 0, fmt.Errorf("mem: %s access to %#x denied (perms %s)", access, uint64(a), w.Perms)
	}
	return w.PFN.Base() + (a & (PageSize - 1)), nil
}

// Mapped returns the number of installed leaf translations.
func (t *PageTable) Mapped() int { return t.mapped }

// ForEach visits every installed translation in ascending frame order.
func (t *PageTable) ForEach(fn func(from, to PFN, perms Perm)) {
	t.ForEachEntry(func(e Entry) { fn(e.From, e.To, e.Perms) })
}

// Entry describes one installed translation with its A/D tracking state.
type Entry struct {
	From, To PFN
	Perms    Perm
	Accessed bool
	Dirty    bool
}

// ForEachEntry visits every installed translation in ascending frame order,
// exposing the hardware A/D bits Lookup maintains — the view a hypervisor's
// dirty-page scanner has of an EPT.
func (t *PageTable) ForEachEntry(fn func(Entry)) {
	if t.root == nil {
		return
	}
	t.root.each(func(i uint64, mid *ptMid) {
		mid.each(func(j uint64, low *ptLow) {
			low.each(func(k uint64, leaf *ptLeaf) {
				for s, e := range leaf {
					if e&ptePresent == 0 {
						continue
					}
					fn(Entry{
						From:     PFN(i<<27 | j<<18 | k<<9 | uint64(s)),
						To:       PFN(e >> pteFrameShift),
						Perms:    Perm(e & uint64(PermRWX)),
						Accessed: e&pteAccessed != 0,
						Dirty:    e&pteDirty != 0,
					})
				}
			})
		})
	})
}

// Clear removes every translation. It frees every node, so it drops the
// last-leaf cache too.
func (t *PageTable) Clear() {
	t.root, t.last = nil, nil
	t.mapped = 0
}
