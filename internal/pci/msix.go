package pci

import "fmt"

// MSI-X support: the per-queue interrupt machinery modern virtio devices
// use. The table lives in device BAR memory on hardware; the model keeps it
// as a structured object reachable from the function, with per-vector
// address/data programming.

// MSIXEntry is one vector's table entry.
type MSIXEntry struct {
	// Addr is the message address. The simulator uses it to carry the
	// interrupt-remapping-table index the message is routed through.
	Addr uint64
	// Data carries the vector number.
	Data uint32
}

// MSIXTable is a function's MSI-X state.
type MSIXTable struct {
	fn      *Function
	entries []MSIXEntry
	// inline holds the entries of a table this small, so the table and its
	// entries are one 64-byte allocation; virtio devices have one or two.
	inline [2]MSIXEntry
}

// msixOffTableSize is the offset of the table-size field in the capability.
const msixOffTableSize = 2

// AddMSIX installs an MSI-X capability advertising n vectors and returns
// the table. The vector count is configuration-driven (it follows a device's
// queue count), so out-of-spec sizes and capability-chain exhaustion are
// reported as errors.
func AddMSIX(fn *Function, n int) (*MSIXTable, error) {
	if n <= 0 || n > 2048 {
		return nil, fmt.Errorf("pci: MSI-X table size %d out of spec", n)
	}
	off, err := fn.Config.AddCapability(CapMSIX, 10)
	if err != nil {
		return nil, err
	}
	// Table size field holds N-1 per the spec.
	fn.Config.WriteU16(off+msixOffTableSize, uint16(n-1))
	t := &MSIXTable{fn: fn}
	if n <= len(t.inline) {
		t.entries = t.inline[:n]
	} else {
		t.entries = make([]MSIXEntry, n)
	}
	return t, nil
}

// Size returns the number of vectors.
func (t *MSIXTable) Size() int { return len(t.entries) }

// SetEntry programs vector i's address and data, the write a driver (or the
// hypervisor intercepting it) performs during interrupt setup.
func (t *MSIXTable) SetEntry(i int, addr uint64, data uint32) error {
	if i < 0 || i >= len(t.entries) {
		return fmt.Errorf("pci: %s MSI-X vector %d out of range (%d vectors)", t.fn.Name, i, len(t.entries))
	}
	t.entries[i].Addr = addr
	t.entries[i].Data = data
	return nil
}
