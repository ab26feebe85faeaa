package hyper

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
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
		for _, p := range vm.WrittenSet().PFNs() {
			if !dirty[p] {
				t.Errorf("%s: written frame %#x has clean EPT dirty bit", vm.Name, uint64(p))
			}
		}
		for p := range dirty {
			if !vm.WrittenSet().Test(uint64(p)) {
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
// level and (shifted by the carve base) at the level below, where resetting
// the upper log leaves them — and the EPT dirty bits must agree with the
// written set.
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
	same("L2 written", l2.WrittenSet().PFNs(), want)
	same("L2 dirty log", l2.DirtyLog().PFNs(), want)
	l2.DirtyLog().Reset()
	if d := l2.DirtyLog().PFNs(); len(d) != 0 {
		t.Fatalf("reset L2 log still holds %v", d)
	}
	base, err := l2.EnsureMapped(0)
	if err != nil {
		t.Fatal(err)
	}
	below := make([]mem.PFN, len(want))
	for i, p := range want {
		below[i] = base + p
	}
	same("L1 dirty log", l1.DirtyLog().PFNs(), below)
	for _, vm := range []*VM{l1, l2} {
		var eptDirty []mem.PFN
		vm.EPT.ForEachEntry(func(e mem.Entry) {
			if e.Dirty {
				eptDirty = append(eptDirty, e.From)
			}
		})
		same(vm.Name+" EPT dirty bits", eptDirty, vm.WrittenSet().PFNs())
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

// TestCopyPageMatchesReadWrite: the page-run operations must leave both
// chains exactly as their per-page forms do. Two identical source and
// destination stack pairs start from the same absent, short (8-byte) and
// full frames, at L1 and at L2, with dirty logging on at every VM level.
// The page set holds runs and gaps that cross a 64-frame host leaf, a
// 512-entry EPT leaf and a 32,768-bit bitmap chunk. One pair then runs
// WritePageQuads over every other run, CopyPagesTo over the source's
// written set and then over the page set, and DiffWritten; the other runs
// WriteU64 per page, a whole-page Read from the source plus a full-page
// Write to the destination per written page and then per page of the set,
// and a whole-page Read of both per written page. After each phase every
// VM's written and dirty frames, host memory's written frames and every
// EPT's A/D bits must agree, as must the destination bytes and the pages
// DiffWritten reports.
func TestCopyPageMatchesReadWrite(t *testing.T) {
	fills := []int{0, 8, mem.PageSize}
	var pages []mem.PFN
	set := mem.NewBitmap(1 << 16)
	for _, r := range [][2]mem.PFN{{60, 70}, {500, 530}, {1000, 1001}, {1002, 1003}, {32760, 32780}, {40000, 40001}} {
		for p := r[0]; p < r[1]; p++ {
			pages = append(pages, p)
			set.Set(uint64(p))
		}
	}
	for _, level := range []int{1, 2} {
		t.Run(fmt.Sprintf("L%d", level), func(t *testing.T) {
			var stacks [2][2][]*VM // [runs, per page][source, destination]
			for i := range stacks {
				for j := range stacks[i] {
					_, stacks[i][j] = testStack(t, level)
				}
			}
			for i, p := range pages {
				for _, pair := range stacks {
					fillPage(t, pair[0][level-1], p, fills[i%3], byte(1+i))
					fillPage(t, pair[1][level-1], p, fills[i/3%3], byte(0x80+i))
				}
			}
			for _, pair := range stacks {
				for _, vms := range pair {
					for _, vm := range vms {
						vm.StartDirtyLog()
					}
				}
			}
			mems := func(i int) (src, dst *GuestMemory) {
				return stacks[i][0][level-1].Memory(), stacks[i][1][level-1].Memory()
			}
			agree := func(phase string) {
				t.Helper()
				for j, side := range []string{"source", "destination"} {
					if got, want := transferState(stacks[0][j]), transferState(stacks[1][j]); got != want {
						t.Fatalf("%s: %s after the runs:\n%s\nafter the per-page forms:\n%s", phase, side, got, want)
					}
				}
			}

			// The run write on every other run of the page set.
			src, _ := mems(0)
			ref, _ := mems(1)
			val := func(i int) uint64 { return 0x5eed0000 + uint64(i)*3 }
			var next int
			set.ForEachRun(func(p mem.PFN, n int) error {
				if next++; next%2 == 0 {
					return nil
				}
				if err := src.WritePageQuads(p, n, val); err != nil {
					t.Fatal(err)
				}
				for i := range n {
					if err := ref.WriteU64((p + mem.PFN(i)).Base(), val(i)); err != nil {
						t.Fatal(err)
					}
				}
				return nil
			})
			agree("WritePageQuads")

			buf := make([]byte, mem.PageSize)
			copyEach := func(pages []mem.PFN) {
				src, dst := mems(1)
				for _, p := range pages {
					if err := src.Read(p.Base(), buf); err != nil {
						t.Fatal(err)
					}
					if err := dst.Write(p.Base(), buf); err != nil {
						t.Fatal(err)
					}
				}
			}
			written := stacks[1][0][level-1].WrittenSet().PFNs()
			src, dst := mems(0)
			if err := src.CopyPagesTo(dst, src.vm.WrittenSet()); err != nil {
				t.Fatal(err)
			}
			copyEach(written)
			agree("CopyPagesTo over the written set")

			src, dst = mems(0)
			if err := src.CopyPagesTo(dst, set); err != nil {
				t.Fatal(err)
			}
			copyEach(pages)
			agree("CopyPagesTo over the page set")

			// Make the destinations differ on a few written pages, one at
			// each end of a run, then compare every written page.
			for i := range stacks {
				_, dst := mems(i)
				for _, p := range []mem.PFN{60, 528, 1002, 32768} {
					if err := dst.WriteU64(p.Base()+16, 0xbad); err != nil {
						t.Fatal(err)
					}
				}
			}
			src, dst = mems(0)
			diff, err := src.DiffWritten(dst)
			if err != nil {
				t.Fatal(err)
			}
			src, dst = mems(1)
			var want []mem.PFN
			got := make([]byte, mem.PageSize)
			for _, p := range written {
				for _, rd := range []struct {
					g   *GuestMemory
					out []byte
				}{{src, buf}, {dst, got}} {
					if err := rd.g.Read(p.Base(), rd.out); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(buf, got) {
					want = append(want, p)
				}
			}
			if !slices.Equal(diff, want) || len(want) != 4 {
				t.Fatalf("DiffWritten = %v, per-page reads differ on %v; want the 4 pages written after the copy", diff, want)
			}
			agree("DiffWritten")
		})
	}
}

// TestRunsFollowEntriesMappedElsewhere: no code path maps an EPT entry
// anywhere but its VM's carve, but the walker must still honour one the way
// the per-page walk does. On twin L2 stacks, an L2 entry inside a run and an
// L1 entry under another page of it are remapped elsewhere; a run write over
// the pages must then leave the same EPTs, written and dirty sets and host
// written frames as one WriteU64 per page, and put each page's value in the
// host frame the EPT entries lead to.
func TestRunsFollowEntriesMappedElsewhere(t *testing.T) {
	var twins [2][]*VM
	for i := range twins {
		_, vms := testStack(t, 2)
		l1, l2 := vms[0], vms[1]
		base, err := l2.EnsureMapped(0)
		if err != nil {
			t.Fatal(err)
		}
		l2.EPT.Map(7, base+100, mem.PermRWX)
		l1.EPT.Map(base+5, 1<<20, mem.PermRWX)
		for _, vm := range vms {
			vm.StartDirtyLog()
		}
		twins[i] = vms
	}
	val := func(i int) uint64 { return 0xa110c + uint64(i) }
	if err := twins[0][1].Memory().WritePageQuads(0, 12, val); err != nil {
		t.Fatal(err)
	}
	for i := range 12 {
		if err := twins[1][1].Memory().WriteU64(mem.PFN(i).Base(), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := transferState(twins[0]), transferState(twins[1]); got != want {
		t.Fatalf("after WritePageQuads:\n%s\nafter WriteU64 per page:\n%s", got, want)
	}
	// Each page's value must sit in the host frame the two EPTs' own
	// entries lead to.
	for _, p := range []mem.PFN{4, 5, 6, 7, 8, 11} {
		var got [2]uint64
		for i, vms := range twins {
			l1f := vms[1].EPT.Lookup(p, 0)
			h := vms[0].EPT.Lookup(l1f.PFN, 0)
			var b [8]byte
			if err := vms[0].Owner.Machine.Memory.Read(h.PFN.Base(), b[:]); err != nil || !l1f.Present || !h.Present {
				t.Fatalf("page %d: walk %+v, %+v: %v", p, l1f, h, err)
			}
			got[i] = binary.LittleEndian.Uint64(b[:])
		}
		if got[0] != got[1] || got[0] != val(int(p)) {
			t.Fatalf("page %d holds %#x after the run, %#x per page; want %#x", p, got[0], got[1], val(int(p)))
		}
	}
}

// TestRunErrorsLandOnTheSamePage: a run that reaches past the guest's RAM
// must fail where the per-page walk fails, with the same error, after the
// same pages, and touch no level for a page past the failing one. On twin
// L2 stacks, a three-page Write and a three-page WritePageQuads starting two
// pages before the end of RAM run against the same writes made one page at
// a time; the errors and every EPT entry, written set, dirty log and host
// written set must agree.
func TestRunErrorsLandOnTheSamePage(t *testing.T) {
	var twins [2][]*VM
	for i := range twins {
		_, twins[i] = testStack(t, 2)
		for _, vm := range twins[i] {
			vm.StartDirtyLog()
		}
	}
	end := twins[0][1].NumPages
	buf := bytes.Repeat([]byte{7}, 3*mem.PageSize)
	val := func(i int) uint64 { return uint64(i) + 9 }
	run := twins[0][1].Memory()
	errs := [2][2]error{
		{run.Write((end - 2).Base(), buf), run.WritePageQuads(end-2, 3, val)},
	}
	one := twins[1][1].Memory()
	for i := range 3 {
		if errs[1][0] = one.Write((end - 2 + mem.PFN(i)).Base(), buf[:mem.PageSize]); errs[1][0] != nil {
			break
		}
	}
	for i := range 3 {
		if errs[1][1] = one.WriteU64((end - 2 + mem.PFN(i)).Base(), val(i)); errs[1][1] != nil {
			break
		}
	}
	for k, what := range []string{"Write", "WritePageQuads"} {
		if errs[0][k] == nil || fmt.Sprint(errs[0][k]) != fmt.Sprint(errs[1][k]) {
			t.Fatalf("%s past the end of RAM: error %v, one page at a time %v", what, errs[0][k], errs[1][k])
		}
	}
	if got, want := transferState(twins[0]), transferState(twins[1]); got != want {
		t.Fatalf("after the runs:\n%s\none page at a time:\n%s", got, want)
	}
}

// fillPage writes n bytes of a seeded pattern at the start of guest frame p
// (n = 0 leaves the frame absent).
func fillPage(t *testing.T, vm *VM, p mem.PFN, n int, seed byte) {
	t.Helper()
	if n == 0 {
		return
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed + byte(i)
	}
	if err := vm.Memory().Write(p.Base(), buf); err != nil {
		t.Fatal(err)
	}
}

// transferState renders what a page transfer may change in one stack: every
// VM's written and dirty frames and EPT entries with their A/D bits, and
// host memory's written frames.
func transferState(vms []*VM) string {
	var b strings.Builder
	for _, vm := range vms {
		fmt.Fprintf(&b, "%s written %v dirty %v\n", vm.Name, vm.WrittenSet().PFNs(), vm.DirtyLog().PFNs())
		vm.EPT.ForEachEntry(func(e mem.Entry) {
			fmt.Fprintf(&b, "%s EPT %+v\n", vm.Name, e)
		})
	}
	host := vms[0].Owner.Machine.Memory
	fmt.Fprintf(&b, "host written %v\n", host.WrittenPages())
	return b.String()
}
