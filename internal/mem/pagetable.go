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
// A PageTable is not safe for concurrent use, even by readers only: Lookup
// stamps A/D bits and updates the last-leaf cache.
type PageTable struct {
	root   *ptNode // nil until the first mapping: an empty table costs no node
	mapped int
	// last caches the level-4 node a walk last reached, and lastKey its
	// prefix (from >> 9), so consecutive frames under one node skip the
	// descent. No generation guards it: interior nodes are freed or
	// replaced only by Clear, which drops it.
	last    *ptNode
	lastKey PFN
}

// ptLevels is the radix depth: 4 levels of 9 bits cover 48-bit addresses.
const ptLevels = 4

type ptNode struct {
	entries [512]ptEntry
}

type ptEntry struct {
	next     *ptNode // interior pointer (nil at leaf level)
	pfn      PFN     // leaf target frame
	perms    Perm
	present  bool
	accessed bool
	dirty    bool
}

// NewPageTable returns an empty table. Its top-level node is allocated by
// the first mapping, so tables that are never populated (an idle vIOMMU
// domain, a shadow table with no DMA yet) cost only their header.
func NewPageTable() *PageTable {
	return &PageTable{}
}

// top returns the top-level node, allocating it for the first mapping.
func (t *PageTable) top() *ptNode {
	if t.root == nil {
		t.root = &ptNode{}
	}
	return t.root
}

// Map installs a translation from frame from to frame to with the given
// permissions, building intermediate levels as needed. Remapping an existing
// entry overwrites it.
func (t *PageTable) Map(from, to PFN, perms Perm) {
	node, _ := t.levelFour(from)
	if node == nil {
		node = t.top()
		for shift := 9 * (ptLevels - 1); shift > 0; shift -= 9 {
			e := &node.entries[from>>shift&0x1ff]
			if e.next == nil {
				e.next = &ptNode{}
				e.present = true
			}
			node = e.next
		}
		t.last, t.lastKey = node, from>>9
	}
	leaf := &node.entries[from&0x1ff]
	if !leaf.present {
		t.mapped++
	}
	*leaf = ptEntry{pfn: to, perms: perms, present: true}
}

// Unmap removes a translation, reporting whether one existed.
func (t *PageTable) Unmap(from PFN) bool {
	node, _ := t.levelFour(from)
	if node == nil {
		return false
	}
	leaf := &node.entries[from&0x1ff]
	if !leaf.present {
		return false
	}
	*leaf = ptEntry{}
	t.mapped--
	return true
}

// levelFour returns the level-4 node covering frame from, caching it, and
// the number of nodes a walk visits above it. A walk that stops early on a
// missing entry returns nil and the nodes it visited; an empty table counts
// its absent top level as one.
func (t *PageTable) levelFour(from PFN) (*ptNode, int) {
	if t.last != nil && t.lastKey == from>>9 {
		return t.last, ptLevels - 1
	}
	if t.root == nil {
		return nil, 1
	}
	node := t.root
	for shift := 9 * (ptLevels - 1); shift > 0; shift -= 9 {
		if node = node.entries[from>>shift&0x1ff].next; node == nil {
			return nil, ptLevels - shift/9
		}
	}
	t.last, t.lastKey = node, from>>9
	return node, ptLevels - 1
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
func (t *PageTable) Lookup(from PFN, access Perm) Walk {
	node, levels := t.levelFour(from)
	if node == nil {
		return Walk{LevelsTouched: levels}
	}
	w := Walk{LevelsTouched: levels + 1}
	leaf := &node.entries[from&0x1ff]
	if !leaf.present {
		return w
	}
	w.Present = true
	w.PFN = leaf.pfn
	w.Perms = leaf.perms
	leaf.accessed = true
	if access.Has(PermWrite) && leaf.perms.Has(PermWrite) {
		leaf.dirty = true
	}
	return w
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
	var walk func(n *ptNode, prefix PFN, level int)
	walk = func(n *ptNode, prefix PFN, level int) {
		for i := range n.entries {
			e := &n.entries[i]
			p := prefix<<9 | PFN(i)
			switch {
			case e.next != nil:
				walk(e.next, p, level+1)
			case level == ptLevels-1 && e.present:
				fn(Entry{From: p, To: e.pfn, Perms: e.perms, Accessed: e.accessed, Dirty: e.dirty})
			}
		}
	}
	if t.root != nil {
		walk(t.root, 0, 0)
	}
}

// Combine produces a new table composing t with next: for every mapping
// a→b in t with a mapping b→c in next, the result maps a→c with the
// intersection of permissions. This is exactly the shadow-table construction
// virtual-passthrough uses to collapse the vIOMMU chain (paper Section 3.5,
// Figure 6): the L1 virtual IOMMU's table holds the combined Ln→L1 mapping.
func (t *PageTable) Combine(next *PageTable) *PageTable {
	out := NewPageTable()
	t.ForEach(func(from, mid PFN, p1 Perm) {
		w := next.Lookup(mid, 0)
		if !w.Present {
			return
		}
		out.Map(from, w.PFN, p1&w.Perms)
	})
	return out
}

// Clear removes every translation. It frees every node, so it drops the
// last-leaf cache too.
func (t *PageTable) Clear() {
	t.root, t.last = nil, nil
	t.mapped = 0
}
