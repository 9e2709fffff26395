package mempool

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/shape"
)

// retained counts the buffers held on the arena's free lists.
func retained(p *Pool) int {
	if p == nil {
		return 0
	}
	a := p.arena()
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, list := range a.free {
		n += len(list)
	}
	return n
}

func TestGetZeroed(t *testing.T) {
	p := New(true)
	a := p.NewArray(shape.Of(8))
	a.Data()[3] = 42
	p.Release(a)
	for i, v := range p.NewArray(shape.Of(8)).Data() {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %g", i, v)
		}
	}
}

func TestGetDirtyReusesExactSize(t *testing.T) {
	p := New(true)
	a := p.GetDirty(16)
	p.Put(a)
	b := p.GetDirty(16)
	if &a[0] != &b[0] {
		t.Fatal("exact-size request did not reuse the freed buffer")
	}
	st := p.Stats()
	if st.Allocs != 1 || st.Reuses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDifferentSizesDoNotMix(t *testing.T) {
	p := New(true)
	a := p.GetDirty(16)
	p.Put(a)
	b := p.GetDirty(17)
	if len(b) != 17 {
		t.Fatalf("got len %d", len(b))
	}
	if p.Stats().Reuses != 0 {
		t.Fatal("pool reused a buffer of the wrong size")
	}
}

func TestDisabledPoolAlwaysAllocates(t *testing.T) {
	p := New(false)
	a := p.GetDirty(8)
	p.Put(a)
	b := p.GetDirty(8)
	if &a[0] == &b[0] {
		t.Fatal("disabled pool reused a buffer")
	}
	st := p.Stats()
	if st.Allocs != 2 || st.Reuses != 0 || st.Discards != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if retained(p) != 0 {
		t.Fatal("disabled pool retained a buffer")
	}
}

func TestNilPoolSafe(t *testing.T) {
	var p *Pool
	buf := p.GetDirty(4)
	if len(buf) != 4 {
		t.Fatalf("nil pool Get len = %d", len(buf))
	}
	p.Put(buf)
	if p.Stats() != (Stats{}) {
		t.Fatal("nil pool stats not zero")
	}
	if retained(p) != 0 {
		t.Fatal("nil pool retains buffers")
	}
}

func TestMaxPerSizeBound(t *testing.T) {
	p := New(true)
	var bufs [][]float64
	for range maxPerSize + 1 {
		bufs = append(bufs, p.GetDirty(4))
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if n := retained(p); n != maxPerSize {
		t.Fatalf("retained %d buffers, want %d", n, maxPerSize)
	}
	if p.Stats().Discards != 1 {
		t.Fatalf("Discards = %d, want 1", p.Stats().Discards)
	}
}

func TestPutEmptyNoop(t *testing.T) {
	p := New(true)
	p.Put(nil)
	p.Put([]float64{})
	if p.Stats().Puts != 0 || retained(p) != 0 {
		t.Fatal("empty Put was recorded")
	}
}

func TestBytesAllocatedCounts(t *testing.T) {
	p := New(true)
	p.GetDirty(10)
	p.GetDirty(6)
	if got := p.Stats().BytesAllocated; got != 16*8 {
		t.Fatalf("BytesAllocated = %d, want %d", got, 16*8)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Allocs: 1, Reuses: 2, Puts: 3, Discards: 4, BytesAllocated: 5}
	str := s.String()
	for _, frag := range []string{"allocs=1", "reuses=2", "puts=3", "discards=4", "bytes=5"} {
		if !strings.Contains(str, frag) {
			t.Errorf("Stats.String() = %q missing %q", str, frag)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	p := New(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := p.GetDirty(size)
				b[0] = float64(i)
				p.Put(b)
			}
		}(8 + g%3)
	}
	wg.Wait()
	st := p.Stats()
	if st.Puts != 8*200 {
		t.Fatalf("Puts = %d, want %d", st.Puts, 8*200)
	}
}

// Property: a NewArray after a Release of size n always yields a zeroed
// array of exactly n elements, for arbitrary interleavings of sizes.
func TestGetAfterPutQuick(t *testing.T) {
	f := func(sizes [12]uint8) bool {
		p := New(true)
		var held []*array.Array
		for _, s := range sizes {
			n := int(s%32) + 1
			a := p.NewArray(shape.Of(n))
			if len(a.Data()) != n {
				return false
			}
			for _, v := range a.Data() {
				if v != 0 {
					return false
				}
			}
			a.Data()[0] = 1 // dirty it
			held = append(held, a)
			if len(held) > 3 {
				p.Release(held[0])
				held = held[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGetPutPooled(b *testing.B) {
	p := New(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.GetDirty(64 * 64)
		p.Put(buf)
	}
}

func BenchmarkGetPutUnpooled(b *testing.B) {
	p := New(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.GetDirty(64 * 64)
		p.Put(buf)
	}
}

func TestParanoidDetectsDoublePut(t *testing.T) {
	p := New(true)
	p.SetParanoid(true)
	buf := p.GetDirty(8)
	p.Put(buf)
	defer func() {
		if recover() == nil {
			t.Error("double Put not detected")
		}
	}()
	p.Put(buf)
}

func TestParanoidDetectsForeignBuffer(t *testing.T) {
	p := New(true)
	p.SetParanoid(true)
	defer func() {
		if recover() == nil {
			t.Error("foreign Put not detected")
		}
	}()
	p.Put(make([]float64, 8))
}

func TestParanoidTracksReuse(t *testing.T) {
	p := New(true)
	p.SetParanoid(true)
	a := p.GetDirty(8)
	p.Put(a)
	b := p.GetDirty(8) // reuses a's buffer; must be live again
	if len(p.paranoid) != 1 {
		t.Fatalf("%d buffers live, want 1", len(p.paranoid))
	}
	p.Put(b) // must not panic
	if len(p.paranoid) != 0 {
		t.Fatalf("%d buffers live after final Put", len(p.paranoid))
	}
}

func TestParanoidOffByDefault(t *testing.T) {
	p := New(true)
	buf := p.GetDirty(8)
	p.Put(buf)
	p.Put(buf) // tolerated without paranoid mode (documented hazard)
	if p.paranoid != nil {
		t.Fatal("buffers tracked without paranoid mode")
	}
}

// Arrays recycle whole: a released array's header comes back with its
// buffer (re-pointed at the requested shape, its old shape vector left
// intact), zeroed on request, under the same release discipline as raw
// buffers — and a warm NewArray/Release cycle allocates nothing.
func TestArraysRecycleHeaderWithBuffer(t *testing.T) {
	p := New(true)
	p.SetParanoid(true)
	a := p.NewArray(shape.Of(2, 3, 4))
	oldShape := a.Shape()
	a.Fill(7)
	p.Release(a)

	b := p.NewArray(shape.Of(4, 6))
	if b != a {
		t.Error("same-size NewArray did not reuse the released header")
	}
	if !b.Shape().Equal(shape.Of(4, 6)) || b.Size() != 24 {
		t.Errorf("recycled array has shape %v size %d", b.Shape(), b.Size())
	}
	if !oldShape.Equal(shape.Of(2, 3, 4)) {
		t.Errorf("shape vector of the header's previous life was overwritten: %v", oldShape)
	}
	for i, v := range b.Data() {
		if v != 0 {
			t.Fatalf("NewArray element %d = %v, want 0", i, v)
		}
	}
	if len(p.paranoid) != 1 {
		t.Fatalf("%d buffers live, want 1", len(p.paranoid))
	}
	p.Release(b)
	if got := p.Stats(); got.Allocs != 1 || got.Reuses != 1 || got.Puts != 2 {
		t.Errorf("stats = %v, want 1 alloc, 1 reuse, 2 puts", got)
	}

	// A raw request may take the buffer; the header is simply dropped.
	buf := p.GetDirty(24)
	p.Put(buf)

	shp := shape.Of(4, 6)
	p.Release(p.NewArrayDirty(shp))
	if n := testing.AllocsPerRun(10, func() { p.Release(p.NewArrayDirty(shp)) }); n != 0 {
		t.Errorf("warm NewArrayDirty/Release allocates %v objects, want 0", n)
	}

	defer func() {
		if recover() == nil {
			t.Error("double Release not detected")
		}
	}()
	c := p.NewArrayDirty(shp)
	p.Release(c)
	p.Release(c)
}

// A Scope draws from and returns to the parent's free lists — a buffer
// released by one scope satisfies another scope's request — while its
// own Stats count only its traffic.
func TestScopeSharesArenaWithOwnStats(t *testing.T) {
	arena := New(true)
	a := arena.Scope()
	b := arena.Scope()

	buf := a.GetDirty(64)
	buf[0] = 42
	a.Put(buf)
	got := b.GetDirty(64)
	if &got[0] != &buf[0] {
		t.Fatal("scope b did not reuse the buffer scope a released")
	}

	as, bs, rs := a.Stats(), b.Stats(), arena.Stats()
	if as.Allocs != 1 || as.Puts != 1 || as.Reuses != 0 {
		t.Fatalf("scope a stats = %v", as)
	}
	if bs.Allocs != 0 || bs.Reuses != 1 {
		t.Fatalf("scope b stats = %v", bs)
	}
	if rs.Allocs != 1 || rs.Reuses != 1 || rs.Puts != 1 {
		t.Fatalf("arena stats = %v", rs)
	}
}

// Scope of a scope shares the same root arena (no chains).
func TestScopeOfScopeSharesRoot(t *testing.T) {
	arena := New(true)
	s := arena.Scope().Scope()
	buf := s.GetDirty(8)
	s.Put(buf)
	if retained(arena) != 1 {
		t.Fatalf("arena retained %d buffers, want 1", retained(arena))
	}
}

// Paranoid release-discipline checking spans scopes: the arena tracks
// liveness, so a double Put through any view is caught.
func TestScopeParanoidSharesTracking(t *testing.T) {
	arena := New(true)
	arena.SetParanoid(true)
	s := arena.Scope()
	buf := s.GetDirty(8)
	s.Put(buf)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put through a scope did not panic")
		}
	}()
	arena.Put(buf)
}

// Concurrent scopes over one arena must be race-free and must account
// exactly: the sum of scope counters equals the arena's.
func TestConcurrentScopes(t *testing.T) {
	arena := New(true)
	const scopes, rounds = 8, 200
	var wg sync.WaitGroup
	views := make([]*Pool, scopes)
	for i := range views {
		views[i] = arena.Scope()
		wg.Add(1)
		go func(s *Pool) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				buf := s.GetDirty(32 + (r%4)*32)
				s.Put(buf)
			}
		}(views[i])
	}
	wg.Wait()
	var sum Stats
	for _, s := range views {
		st := s.Stats()
		sum.Allocs += st.Allocs
		sum.Reuses += st.Reuses
		sum.Puts += st.Puts
		sum.Discards += st.Discards
		sum.BytesAllocated += st.BytesAllocated
	}
	if got := arena.Stats(); got != sum {
		t.Fatalf("arena stats %v != sum of scope stats %v", got, sum)
	}
	if got := sum.Allocs + sum.Reuses; got != scopes*rounds {
		t.Fatalf("gets = %d, want %d", got, scopes*rounds)
	}
}

// Shared returns one process-global arena.
func TestSharedSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared returned two arenas")
	}
	if !Shared().enabled {
		t.Fatal("shared arena is not recycling")
	}
}
