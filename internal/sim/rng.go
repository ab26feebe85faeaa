package sim

// RNG is a small, fast, deterministic random number generator
// (xorshift128+). Every stochastic choice in the simulator draws from an RNG
// seeded by the experiment configuration so runs are exactly reproducible;
// the standard library's global source is never used.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed. Any seed, including zero, is
// valid: the state is expanded with splitmix64 so no all-zero state can occur.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 expansion, the recommended way to seed xorshift generators.
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next value in the sequence.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		//nvlint:ignore nopanic mirrors math/rand.Intn's contract; a non-positive bound is caller corruption
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Cyclesn returns a uniform cycle count in [0, n). A zero n yields zero.
func (r *RNG) Cyclesn(n Cycles) Cycles {
	if n == 0 {
		return 0
	}
	return Cycles(r.Uint64() % uint64(n))
}
