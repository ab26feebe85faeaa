package mem

// smallEntries is how many entries a smallArray lists before it becomes
// the full array, for page-table directory nodes and bitmap chunks alike.
const smallEntries = 8

// smallArray is an array of 512 entries, each zero until written, that
// starts small: its first smallEntries written entries sit in idx and val,
// sorted by index, in one 96-byte object, and an entry it does not list is
// zero. The next entry promotes it to full, all 512 entries in one array,
// which it keeps. A page-table directory node is a smallArray of child
// pointers, and a bitmap chunk one of words (DESIGN.md §15.4).
type smallArray[V comparable] struct {
	full *[512]V // nil while the array is small
	n    uint8   // entries listed in idx and val while small
	idx  [smallEntries]uint16
	val  [smallEntries]V
}

// at returns entry i, or nil while the array is small and does not list it
// (the entry is zero).
func (a *smallArray[V]) at(i uint64) *V {
	if a.full != nil {
		return &a.full[i]
	}
	for k := range a.n {
		if uint64(a.idx[k]) == i {
			return &a.val[k]
		}
	}
	return nil
}

// get returns entry i.
func (a *smallArray[V]) get(i uint64) V {
	if p := a.at(i); p != nil {
		return *p
	}
	var zero V
	return zero
}

// slot returns entry i for writing. A full array returns it in place, with
// no call.
func (a *smallArray[V]) slot(i uint64) *V {
	if a.full != nil {
		return &a.full[i]
	}
	return a.slotSmall(i)
}

// slotSmall is slot on a small array: it lists entry i, zero, when it does
// not list it yet, or promotes the array when it has no room left to.
func (a *smallArray[V]) slotSmall(i uint64) *V {
	k := uint8(0)
	for k < a.n && uint64(a.idx[k]) < i {
		k++
	}
	if k < a.n && uint64(a.idx[k]) == i {
		return &a.val[k]
	}
	if a.n < smallEntries {
		copy(a.idx[k+1:a.n+1], a.idx[k:a.n])
		copy(a.val[k+1:a.n+1], a.val[k:a.n])
		var zero V
		a.idx[k], a.val[k] = uint16(i), zero
		a.n++
		return &a.val[k]
	}
	full := new([512]V)
	for k := range a.n {
		full[a.idx[k]] = a.val[k]
	}
	*a = smallArray[V]{full: full}
	return &full[i]
}

// each calls fn for every nonzero entry, in ascending index order.
func (a *smallArray[V]) each(fn func(i uint64, v V)) {
	var zero V
	if a.full == nil {
		for k := range a.n {
			if a.val[k] != zero {
				fn(uint64(a.idx[k]), a.val[k])
			}
		}
		return
	}
	for i, v := range a.full {
		if v != zero {
			fn(uint64(i), v)
		}
	}
}

// reset zeroes every entry: a small array lists none, and a full one keeps
// its array.
func (a *smallArray[V]) reset() {
	if a.full == nil {
		a.n = 0
		return
	}
	*a.full = [512]V{}
}
