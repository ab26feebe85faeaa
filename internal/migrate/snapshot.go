package migrate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/mem"
)

// Suspend/resume is the other I/O-interposition benefit the paper names
// alongside migration (Section 1): because DVH devices are software, the
// host can encapsulate the whole nested VM — memory image plus virtual
// hardware state — into a byte stream and bring it back later, on this host
// or another of the same kind. Device passthrough forfeits this.

// snapshotMagic identifies the serialization format.
var snapshotMagic = [8]byte{'N', 'V', 'S', 'N', 'A', 'P', '0', '1'}

// Snapshot serializes a VM's written memory pages and, when a DVH layer is
// supplied, the DVH virtual-hardware state of the (nested) VM.
func Snapshot(vm *hyper.VM, d *core.DVH) ([]byte, error) {
	if vm == nil {
		return nil, fmt.Errorf("migrate: nil VM")
	}
	for _, dev := range vm.Devices {
		if dev.Phys != nil {
			return nil, fmt.Errorf("migrate: cannot snapshot %s: physical device %s assigned", vm.Name, dev.Name)
		}
	}
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	pages := vm.WrittenSet().PFNs()
	if err := binary.Write(&buf, binary.LittleEndian, uint64(vm.NumPages)); err != nil {
		return nil, err
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint64(len(pages))); err != nil {
		return nil, err
	}
	gm := vm.Memory()
	page := make([]byte, mem.PageSize)
	for _, p := range pages {
		if err := binary.Write(&buf, binary.LittleEndian, uint64(p)); err != nil {
			return nil, err
		}
		if err := gm.Read(p.Base(), page); err != nil {
			return nil, err
		}
		buf.Write(page)
	}
	var dvhState []byte
	if d != nil && vm.Level >= 2 {
		var err error
		dvhState, err = d.SaveVMState(vm)
		if err != nil {
			return nil, err
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(dvhState))); err != nil {
		return nil, err
	}
	buf.Write(dvhState)
	return buf.Bytes(), nil
}

// RestoreSnapshot materializes a snapshot into a destination VM of at least
// the source's size, restoring DVH state when a layer is supplied.
func RestoreSnapshot(vm *hyper.VM, d *core.DVH, blob []byte) error {
	r := bytes.NewReader(blob)
	var magic [8]byte
	// io.ReadFull throughout: bytes.Reader.Read accepts short reads at EOF
	// with a nil error, which would silently restore a partial page from a
	// truncated snapshot.
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != snapshotMagic {
		return fmt.Errorf("migrate: not a snapshot (bad magic)")
	}
	var srcPages, count uint64
	if err := binary.Read(r, binary.LittleEndian, &srcPages); err != nil {
		return err
	}
	if mem.PFN(srcPages) > vm.NumPages {
		return fmt.Errorf("migrate: snapshot of %d pages exceeds destination %s (%d)", srcPages, vm.Name, vm.NumPages)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	gm := vm.Memory()
	page := make([]byte, mem.PageSize)
	for i := uint64(0); i < count; i++ {
		var pfn uint64
		if err := binary.Read(r, binary.LittleEndian, &pfn); err != nil {
			return fmt.Errorf("migrate: truncated snapshot at page %d: %w", i, err)
		}
		if _, err := io.ReadFull(r, page); err != nil {
			return fmt.Errorf("migrate: truncated snapshot content at page %d: %w", i, err)
		}
		if err := gm.Write(mem.PFN(pfn).Base(), page); err != nil {
			return err
		}
	}
	var dvhLen uint32
	if err := binary.Read(r, binary.LittleEndian, &dvhLen); err != nil {
		return err
	}
	if dvhLen > 0 {
		if int(dvhLen) > r.Len() {
			return fmt.Errorf("migrate: DVH state length %d exceeds remaining %d bytes", dvhLen, r.Len())
		}
		state := make([]byte, dvhLen)
		if _, err := io.ReadFull(r, state); err != nil {
			return fmt.Errorf("migrate: truncated DVH state: %w", err)
		}
		if d == nil {
			return fmt.Errorf("migrate: snapshot carries DVH state but no DVH layer supplied")
		}
		if err := d.RestoreVMState(vm, state); err != nil {
			return err
		}
	}
	return nil
}
