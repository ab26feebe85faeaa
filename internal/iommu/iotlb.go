package iommu

import (
	"repro/internal/mem"
	"repro/internal/pci"
)

// IOTLB is the unit's translation cache. Like the hardware it models (and
// the emulated IOTLB inside a virtual IOMMU), it serves repeated DMA
// translations without walking the page tables — and it makes invalidation
// a correctness requirement: unmapping a page without invalidating leaves a
// stale entry a device could still DMA through, which is exactly the bug
// class hypervisor IOMMU code guards against.
type IOTLB struct {
	entries  map[iotlbKey]iotlbEntry
	capacity int
	// Hits and Misses count lookups for cost accounting and tests.
	Hits, Misses uint64
	// clock provides FIFO-ish eviction order.
	clock uint64
}

type iotlbKey struct {
	domain *Domain
	page   mem.PFN
}

type iotlbEntry struct {
	target mem.PFN
	perms  mem.Perm
	stamp  uint64
}

// newIOTLB returns a cache with the given capacity (entries). Storage grows
// with the translations actually cached, up to that capacity, so an IOMMU
// that never translates a DMA costs no table.
func newIOTLB(capacity int) *IOTLB {
	if capacity <= 0 {
		capacity = 256
	}
	return &IOTLB{entries: make(map[iotlbKey]iotlbEntry), capacity: capacity}
}

func (t *IOTLB) lookup(d *Domain, p mem.PFN) (iotlbEntry, bool) {
	e, ok := t.entries[iotlbKey{d, p}]
	if ok {
		t.Hits++
	} else {
		t.Misses++
	}
	return e, ok
}

func (t *IOTLB) insert(d *Domain, p, target mem.PFN, perms mem.Perm) {
	if len(t.entries) >= t.capacity {
		// Evict the oldest entry; the map is small enough that a scan is
		// simpler than a list and the access pattern is streaming anyway.
		var victim iotlbKey
		oldest := ^uint64(0)
		//nvlint:ordered stamps are unique (clock increments per insert), so the minimum is order-independent
		for k, e := range t.entries {
			if e.stamp < oldest {
				oldest = e.stamp
				victim = k
			}
		}
		delete(t.entries, victim)
	}
	t.clock++
	t.entries[iotlbKey{d, p}] = iotlbEntry{target: target, perms: perms, stamp: t.clock}
}

// invalidatePage drops one translation.
func (t *IOTLB) invalidatePage(d *Domain, p mem.PFN) {
	delete(t.entries, iotlbKey{d, p})
}

// invalidateDomain drops every translation of one domain.
func (t *IOTLB) invalidateDomain(d *Domain) {
	//nvlint:ordered unconditionally deletes every matching key; the surviving set is order-independent
	for k := range t.entries {
		if k.domain == d {
			delete(t.entries, k)
		}
	}
}

// Len reports the number of cached translations.
func (t *IOTLB) Len() int { return len(t.entries) }

// InvalidatePage flushes one page of a domain from the unit's IOTLB — the
// invalidation command a hypervisor must issue after Unmap.
func (u *IOMMU) InvalidatePage(d *Domain, iova mem.PFN) {
	u.iotlb.invalidatePage(d, iova)
}

// InvalidateDomain flushes a whole domain, used on detach and teardown.
func (u *IOMMU) InvalidateDomain(d *Domain) {
	u.iotlb.invalidateDomain(d)
}

// TLB exposes the unit's IOTLB for statistics.
func (u *IOMMU) TLB() *IOTLB { return u.iotlb }

// TranslateCached resolves a DMA access through the IOTLB, falling back to
// a page-table walk on miss and caching the result. The boolean reports
// whether the translation was served from the cache (walk cost elided).
//
// Deliberately faithful hazard: a mapping removed with Unmap but not
// invalidated keeps translating from the cache.
func (u *IOMMU) TranslateCached(fn *pci.Function, a mem.Addr, access mem.Perm) (mem.Addr, bool, error) {
	d, ok := u.attach[fn.Addr]
	if !ok {
		return 0, false, errUnattached(u, fn)
	}
	page := mem.PageOf(a)
	if e, ok := u.iotlb.lookup(d, page); ok && e.perms.Has(access) {
		return e.target.Base() + (a & (mem.PageSize - 1)), true, nil
	}
	addr, _, err := u.Translate(fn, a, access)
	if err != nil {
		return 0, false, err
	}
	u.iotlb.insert(d, page, mem.PageOf(addr), access)
	return addr, false, nil
}
