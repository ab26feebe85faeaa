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
type PageTable struct {
	root   *ptNode // nil until the first mapping: an empty table costs no node
	mapped int
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
	// huge marks a level-3 leaf covering HugePageFrames frames (a 2 MiB
	// mapping), the large-page optimization real EPTs use to shorten walks.
	huge bool
}

// HugePageFrames is the span of one huge mapping: 512 base frames = 2 MiB.
const HugePageFrames = 512

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

// indices splits a frame number into its per-level radix indices, highest
// level first.
func indices(p PFN) [ptLevels]int {
	var ix [ptLevels]int
	for l := 0; l < ptLevels; l++ {
		shift := uint(9 * (ptLevels - 1 - l))
		ix[l] = int((uint64(p) >> shift) & 0x1ff)
	}
	return ix
}

// Map installs a translation from frame from to frame to with the given
// permissions, building intermediate levels as needed. Remapping an existing
// entry overwrites it.
func (t *PageTable) Map(from, to PFN, perms Perm) {
	ix := indices(from)
	node := t.top()
	for l := 0; l < ptLevels-1; l++ {
		e := &node.entries[ix[l]]
		if e.next == nil {
			e.next = &ptNode{}
			e.present = true
		}
		node = e.next
	}
	leaf := &node.entries[ix[ptLevels-1]]
	if !leaf.present {
		t.mapped++
	}
	*leaf = ptEntry{pfn: to, perms: perms, present: true}
}

// MapHuge installs a 2 MiB translation: from and to must be aligned to
// HugePageFrames. The mapping terminates the walk one level early, exactly
// as hardware large pages do.
func (t *PageTable) MapHuge(from, to PFN, perms Perm) error {
	if from%HugePageFrames != 0 || to%HugePageFrames != 0 {
		return fmt.Errorf("mem: huge mapping %#x -> %#x not 2MiB aligned", uint64(from), uint64(to))
	}
	ix := indices(from)
	node := t.top()
	for l := 0; l < ptLevels-2; l++ {
		e := &node.entries[ix[l]]
		if e.next == nil {
			e.next = &ptNode{}
			e.present = true
		}
		node = e.next
	}
	leaf := &node.entries[ix[ptLevels-2]]
	if leaf.next != nil {
		return fmt.Errorf("mem: huge mapping at %#x would shadow existing 4K mappings", uint64(from))
	}
	if !leaf.present {
		t.mapped++
	}
	*leaf = ptEntry{pfn: to, perms: perms, present: true, huge: true}
	return nil
}

// Unmap removes a translation, reporting whether one existed.
func (t *PageTable) Unmap(from PFN) bool {
	if t.root == nil {
		return false
	}
	ix := indices(from)
	node := t.root
	for l := 0; l < ptLevels-1; l++ {
		e := &node.entries[ix[l]]
		if e.next == nil {
			return false
		}
		node = e.next
	}
	leaf := &node.entries[ix[ptLevels-1]]
	if !leaf.present {
		return false
	}
	*leaf = ptEntry{}
	t.mapped--
	return true
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
// access, dirty) bits like hardware A/D-bit tracking.
func (t *PageTable) Lookup(from PFN, access Perm) Walk {
	if t.root == nil {
		// An empty table: the walk reads the (all-clear) top level and stops.
		return Walk{LevelsTouched: 1}
	}
	ix := indices(from)
	node := t.root
	w := Walk{}
	for l := 0; l < ptLevels-1; l++ {
		w.LevelsTouched++
		e := &node.entries[ix[l]]
		if l == ptLevels-2 && e.present && e.huge {
			// Huge leaf: the walk ends a level early; the low 9 index bits
			// select the frame inside the 2 MiB span.
			w.Present = true
			w.PFN = e.pfn + from%HugePageFrames
			w.Perms = e.perms
			e.accessed = true
			if access.Has(PermWrite) && e.perms.Has(PermWrite) {
				e.dirty = true
			}
			return w
		}
		if e.next == nil {
			return w
		}
		node = e.next
	}
	w.LevelsTouched++
	leaf := &node.entries[ix[ptLevels-1]]
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
	var walk func(n *ptNode, prefix PFN, level int)
	walk = func(n *ptNode, prefix PFN, level int) {
		for i := range n.entries {
			e := &n.entries[i]
			if !e.present && e.next == nil {
				continue
			}
			p := prefix<<9 | PFN(i)
			if level == ptLevels-1 {
				if e.present {
					fn(p, e.pfn, e.perms)
				}
			} else if e.next != nil {
				walk(e.next, p, level+1)
			}
		}
	}
	if t.root != nil {
		walk(t.root, 0, 0)
	}
}

// Entry describes one installed translation with its A/D tracking state.
type Entry struct {
	From, To PFN
	Perms    Perm
	Accessed bool
	Dirty    bool
	Huge     bool
}

// ForEachEntry visits every installed translation in ascending frame order,
// exposing the hardware A/D bits Lookup maintains — the view a hypervisor's
// dirty-page scanner has of an EPT.
func (t *PageTable) ForEachEntry(fn func(Entry)) {
	var walk func(n *ptNode, prefix PFN, level int)
	walk = func(n *ptNode, prefix PFN, level int) {
		for i := range n.entries {
			e := &n.entries[i]
			if !e.present && e.next == nil {
				continue
			}
			p := prefix<<9 | PFN(i)
			switch {
			case level == ptLevels-1:
				if e.present {
					fn(Entry{From: p, To: e.pfn, Perms: e.perms, Accessed: e.accessed, Dirty: e.dirty})
				}
			case level == ptLevels-2 && e.present && e.huge:
				fn(Entry{From: p << 9, To: e.pfn, Perms: e.perms, Accessed: e.accessed, Dirty: e.dirty, Huge: true})
			case e.next != nil:
				walk(e.next, p, level+1)
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

// Clear removes every translation.
func (t *PageTable) Clear() {
	t.root = nil
	t.mapped = 0
}
