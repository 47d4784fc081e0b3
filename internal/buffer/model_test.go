package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ocb/internal/disk"
)

// modelPool is the reference the differential test compares Pool against:
// residency in a map and the recency list as a slice of page ids (most
// recent first). It does what Pool's contract says, by the slowest obvious
// means, and logs the disk I/O it expects.
type modelPool struct {
	capacity int
	onDisk   func(disk.PageID) bool
	io       *[]ioEvent
	frames   map[disk.PageID]*modelFrame
	order    []disk.PageID // recency order, most recent first
	stats    Stats
}

type modelFrame struct{ dirty bool }

// ioEvent is one I/O the disk was asked for.
type ioEvent struct {
	op disk.Op
	id disk.PageID
}

func newModelPool(capacity int, onDisk func(disk.PageID) bool, io *[]ioEvent) *modelPool {
	return &modelPool{capacity: capacity, onDisk: onDisk, io: io, frames: map[disk.PageID]*modelFrame{}}
}

func (m *modelPool) touch(id disk.PageID) {
	m.order = slices.Insert(slices.DeleteFunc(m.order, func(x disk.PageID) bool { return x == id }), 0, id)
}

func (m *modelPool) remove(id disk.PageID) {
	m.order = slices.DeleteFunc(m.order, func(x disk.PageID) bool { return x == id })
	delete(m.frames, id)
}

func (m *modelPool) evict() {
	victim := m.order[len(m.order)-1]
	if m.frames[victim].dirty {
		*m.io = append(*m.io, ioEvent{disk.OpWrite, victim})
		m.stats.DirtyEvictions++
	}
	m.stats.Evictions++
	m.remove(victim)
}

func (m *modelPool) admit(id disk.PageID, dirty bool) {
	for len(m.order) >= m.capacity {
		m.evict()
	}
	m.frames[id] = &modelFrame{dirty: dirty}
	m.order = slices.Insert(m.order, 0, id)
}

// get reports whether the page could be returned.
func (m *modelPool) get(id disk.PageID) bool {
	if _, ok := m.frames[id]; ok {
		m.stats.Hits++
		m.touch(id)
		return true
	}
	m.stats.Misses++
	*m.io = append(*m.io, ioEvent{disk.OpRead, id})
	if !m.onDisk(id) {
		return false
	}
	m.admit(id, false)
	return true
}

func (m *modelPool) install(id disk.PageID) {
	if f, ok := m.frames[id]; ok {
		f.dirty = true
		m.touch(id)
		return
	}
	m.admit(id, true)
}

func (m *modelPool) markDirty(id disk.PageID) {
	if f, ok := m.frames[id]; ok {
		f.dirty = true
	}
}

func (m *modelPool) discard(id disk.PageID) {
	if _, ok := m.frames[id]; ok {
		m.remove(id)
	}
}

func (m *modelPool) resize(capacity int) {
	m.capacity = capacity
	for len(m.order) > m.capacity {
		m.evict()
	}
}

func (m *modelPool) dropAll() {
	m.frames, m.order = map[disk.PageID]*modelFrame{}, nil
}

func (m *modelPool) flushAll() {
	for _, id := range m.order {
		if f := m.frames[id]; f.dirty {
			*m.io = append(*m.io, ioEvent{disk.OpWrite, id})
			f.dirty = false
			m.stats.Flushes++
		}
	}
}

// agrees compares everything that decides the pool's future behaviour: the
// counters, the recency order, each frame's dirty bit and the pool's count
// of dirty frames (where FlushAll stops). ids is every page
// id the test ever hands this pool.
func (m *modelPool) agrees(p *Pool, ids []disk.PageID) error {
	if p.Stats() != m.stats {
		return fmt.Errorf("stats %+v, model %+v", p.Stats(), m.stats)
	}
	if p.Capacity() != m.capacity || p.Len() != len(m.order) {
		return fmt.Errorf("capacity/len %d/%d, model %d/%d", p.Capacity(), p.Len(), m.capacity, len(m.order))
	}
	if got := p.ResidentPages(); !slices.Equal(got, m.order) {
		return fmt.Errorf("recency %v, model %v", got, m.order)
	}
	dirty := 0
	for _, f := range m.frames {
		if f.dirty {
			dirty++
		}
	}
	if p.Dirty() != dirty {
		return fmt.Errorf("dirty count %d, model has %d dirty frames", p.Dirty(), dirty)
	}
	for _, id := range ids {
		mf, ok := m.frames[id]
		if p.Contains(id) != ok {
			return fmt.Errorf("page %d resident = %v, model %v", id, !ok, ok)
		}
		if pg, got := p.GetIfResident(id); got != ok || (ok && pg.ID != id) {
			return fmt.Errorf("GetIfResident(%d) = %v, %v", id, pg, got)
		}
		if f := p.lookup(id); ok && f.dirty != mf.dirty {
			return fmt.Errorf("page %d dirty %v, model %v", id, f.dirty, mf.dirty)
		}
	}
	return nil
}

// pooler is the surface the differential test drives: *Pool and *Sharded
// both have it.
type pooler interface {
	Get(disk.PageID) (*disk.Page, error)
	Install(*disk.Page) error
	MarkDirty(disk.PageID)
	Discard(disk.PageID)
	Resize(int) error
	DropAll()
	FlushAll() error
}

// TestPoolMatchesModel drives a lone Pool and a Sharded of 1 and 4 shards
// through a seeded random mix of every mutating call, ids that are not on
// the disk included. After every step the pool must agree with one model
// of the full capacity, and the disk must have been asked for the same
// reads and writes in the same order — which pins the victim sequence and
// the flush order.
func TestPoolMatchesModel(t *testing.T) {
	const pages, steps = 40, 4000
	for _, shards := range []int{0, 1, 4} { // 0 = a lone Pool
		t.Run(fmt.Sprintf("lru/shards=%d", shards), func(t *testing.T) {
			d, ids := newDisk(t, pages)
			// A freed id, a never-issued id and the largest id there is.
			d.Free(ids[7])
			universe := append(slices.Clone(ids), disk.PageID(pages+9), ^disk.PageID(0))
			onDisk := func(id disk.PageID) bool { _, ok := d.Peek(id); return ok }
			var got, want []ioEvent
			d.FailureHook = func(op disk.Op, id disk.PageID) error {
				got = append(got, ioEvent{op, id})
				return nil
			}

			capacity := 9
			var (
				sut  pooler
				pool *Pool
			)
			if shards == 0 {
				p, err := New(d, capacity)
				if err != nil {
					t.Fatal(err)
				}
				sut, pool = p, p
			} else {
				s, err := NewSharded(d, capacity, LRU, shards)
				if err != nil {
					t.Fatal(err)
				}
				sut, pool = s, s.pool
			}
			// One model of the full capacity at every shard count: the
			// shard argument never splits the buffer.
			model := newModelPool(capacity, onDisk, &want)

			rng := rand.New(rand.NewSource(int64(shards)))
			for step := 0; step < steps; step++ {
				id := universe[rng.Intn(len(universe))]
				var op string
				switch r := rng.Intn(100); {
				case r < 55:
					op = fmt.Sprintf("Get(%d)", id)
					_, err := sut.Get(id)
					if ok := model.get(id); ok != (err == nil) {
						t.Fatalf("step %d %s: err = %v, model ok = %v", step, op, err, ok)
					}
				case r < 70:
					pg, ok := d.Peek(id)
					if !ok {
						continue
					}
					op = fmt.Sprintf("Install(%d)", id)
					if err := sut.Install(pg); err != nil {
						t.Fatal(err)
					}
					model.install(id)
				case r < 82:
					op = fmt.Sprintf("MarkDirty(%d)", id)
					sut.MarkDirty(id)
					model.markDirty(id)
				case r < 92:
					op = fmt.Sprintf("Discard(%d)", id)
					sut.Discard(id)
					model.discard(id)
				case r < 95:
					capacity = 1 + rng.Intn(12)
					op = fmt.Sprintf("Resize(%d)", capacity)
					if err := sut.Resize(capacity); err != nil {
						t.Fatal(err)
					}
					model.resize(capacity)
				case r < 96:
					op = "DropAll"
					sut.DropAll()
					model.dropAll()
				default:
					op = "FlushAll"
					if err := sut.FlushAll(); err != nil {
						t.Fatal(err)
					}
					model.flushAll()
				}
				if err := model.agrees(pool, universe); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d %s: disk I/O %v, model %v", step, op, got, want)
				}
				got, want = got[:0], want[:0]
			}
			if evictions := model.stats.Evictions; evictions < steps/20 {
				t.Fatalf("only %d evictions in %d steps: the mix does not exercise replacement", evictions, steps)
			}
		})
	}
}
