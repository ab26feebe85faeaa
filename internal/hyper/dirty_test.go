package hyper

import (
	"testing"

	"repro/internal/mem"
)

// Regression: guest writes must set the EPT dirty bit at every nesting level,
// exactly as hardware A/D-bit tracking would. The translate path used to walk
// with access 0, so a hypervisor scanning its EPT saw a clean table no matter
// how much the guest wrote.
func TestEPTDirtyBitsTrackWrites(t *testing.T) {
	_, vms := testStack(t, 3)
	l1, l3 := vms[0], vms[2]
	addr := l3.MustAllocPages(2)
	if err := l3.Memory().Write(addr, make([]byte, 2*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	for _, vm := range []*VM{vms[0], vms[1], vms[2]} {
		dirty := map[mem.PFN]bool{}
		vm.EPT.ForEachEntry(func(e mem.Entry) {
			if e.Dirty {
				dirty[e.From] = true
			}
		})
		for _, p := range vm.WrittenPages() {
			if !dirty[p] {
				t.Errorf("%s: written frame %#x has clean EPT dirty bit", vm.Name, uint64(p))
			}
		}
		for p := range dirty {
			if !vm.Written(p) {
				t.Errorf("%s: EPT-dirty frame %#x never marked written", vm.Name, uint64(p))
			}
		}
	}
	// Reads alone must not dirty anything.
	roAddr := l1.MustAllocPages(1)
	if err := l1.Memory().Read(roAddr, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	l1.EPT.ForEachEntry(func(e mem.Entry) {
		if e.From == mem.PageOf(roAddr) {
			if e.Dirty {
				t.Error("read-only access set the EPT dirty bit")
			}
			if !e.Accessed {
				t.Error("read did not set the EPT accessed bit")
			}
		}
	})
}

// Written sets and dirty logs are sparse bitmaps: writes scattered across a
// 12 GiB guest, across bitmap region boundaries and at its last frame must
// come back exactly once each, in ascending frame order, at the written
// level and (shifted by the carve base) at the level below — and the EPT
// dirty bits must agree with the written set.
func TestSparseDirtyTrackingAcrossRegions(t *testing.T) {
	_, vms := testStack(t, 2)
	l1, l2 := vms[0], vms[1]
	l1.StartDirtyLog()
	l2.StartDirtyLog()
	last := l2.NumPages - 1
	// A write straddling frames 32767/32768 touches two bitmap regions.
	if err := l2.Memory().Write(mem.PFN(32768).Base()-4, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []mem.PFN{last, 1<<20 + 5, 3} {
		if err := l2.Memory().Write(p.Base(), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	want := []mem.PFN{3, 32767, 32768, 1<<20 + 5, last}
	same := func(what string, got, want []mem.PFN) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
	}
	same("L2 written", l2.WrittenPages(), want)
	same("L2 peeked dirty log", l2.PeekDirty(), want)
	same("L2 dirty log", l2.CollectDirty(), want)
	if d := l2.CollectDirty(); len(d) != 0 {
		t.Fatalf("drained L2 log still holds %v", d)
	}
	base, err := l2.EnsureMapped(0)
	if err != nil {
		t.Fatal(err)
	}
	below := make([]mem.PFN, len(want))
	for i, p := range want {
		below[i] = base + p
	}
	same("L1 dirty log", l1.CollectDirty(), below)
	for _, vm := range []*VM{l1, l2} {
		var eptDirty []mem.PFN
		vm.EPT.ForEachEntry(func(e mem.Entry) {
			if e.Dirty {
				eptDirty = append(eptDirty, e.From)
			}
		})
		same(vm.Name+" EPT dirty bits", eptDirty, vm.WrittenPages())
	}
}

func TestAllocPagesExhaustionIsError(t *testing.T) {
	_, vms := testStack(t, 1)
	l1 := vms[0]
	if _, err := l1.AllocPages(int(l1.NumPages)); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if _, err := l1.AllocPages(-1); err == nil {
		t.Fatal("negative allocation accepted")
	}
	// A failed allocation must not consume address space.
	a1 := l1.MustAllocPages(1)
	a2 := l1.MustAllocPages(1)
	if a2 != a1+mem.PageSize {
		t.Fatalf("allocator skipped space after failure: %#x then %#x", uint64(a1), uint64(a2))
	}
}
