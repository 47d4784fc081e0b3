package store

import (
	"fmt"

	"ocb/internal/disk"
)

// CheckIntegrity verifies that the object table and the page directory
// tell the same story: every table entry's pages exist and hold the
// object, every slot on every page belongs to a live object, page byte
// accounting matches slot sums, no object appears twice, and the ordered
// index, once built, lists exactly the table's objects. It charges no I/O
// and excludes every concurrent access while it runs. Intended for tests
// and offline verification (ocbgen).
func (s *Store) CheckIntegrity() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Table -> pages. The exclusive s.mu keeps every tableMu holder out,
	// so the table is read directly.
	claimed := make(map[disk.PageID]map[OID]bool)
	live := 0
	var one [1]disk.PageID
	for i, l := range s.table {
		if l.home == 0 {
			continue
		}
		live++
		oid := OID(i)
		pages := l.pages(&one)
		if err := checkRun(oid, int(l.size), len(pages), s.disk.PageSize()); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, pid := range pages {
			pg, ok := s.disk.Peek(pid)
			if !ok {
				return fmt.Errorf("store: object %d references missing page %d", oid, pid)
			}
			if !pg.Has(uint64(oid)) {
				return fmt.Errorf("store: object %d not on its page %d", oid, pid)
			}
			if claimed[pid] == nil {
				claimed[pid] = make(map[OID]bool)
			}
			claimed[pid][oid] = true
		}
	}

	if live != s.live {
		return fmt.Errorf("store: table holds %d objects but counts %d", live, s.live)
	}

	// Pages -> table.
	for _, pid := range s.disk.PageIDs() {
		pg, _ := s.disk.Peek(pid)
		sum := 0
		seen := make(map[uint64]bool)
		for _, slot := range pg.Slots {
			sum += slot.Size
			oid := OID(slot.Object)
			l := s.get(oid)
			if l.home == 0 {
				return fmt.Errorf("store: page %d holds unknown object %d", pid, oid)
			}
			if seen[slot.Object] {
				return fmt.Errorf("store: page %d holds object %d twice", pid, oid)
			}
			seen[slot.Object] = true
			onPage := false
			for _, p := range l.pages(&one) {
				if p == pid {
					onPage = true
					break
				}
			}
			if !onPage {
				return fmt.Errorf("store: page %d holds object %d whose table entry disagrees", pid, oid)
			}
		}
		if sum != pg.Used {
			return fmt.Errorf("store: page %d accounts %d bytes, slots sum to %d", pid, pg.Used, sum)
		}
		if pg.Used > s.disk.PageSize() && len(pg.Slots) != 1 {
			return fmt.Errorf("store: overfull shared page %d", pid)
		}
	}

	// Table <-> ordered index (s.mu, exclusive, excludes idx.mu's holders).
	if ix := s.idx.tree; ix != nil {
		if err := ix.Check(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if ix.Len() != live {
			return fmt.Errorf("store: ordered index lists %d objects, the table %d", ix.Len(), live)
		}
		for i, l := range s.table {
			if l.home == 0 {
				continue
			}
			if _, ok := ix.Get(OID(i)); !ok {
				return fmt.Errorf("store: object %d missing from the ordered index", i)
			}
		}
	}

	// Resident pages must exist on disk.
	for _, pid := range s.pool.ResidentPages() {
		if _, ok := s.disk.Peek(pid); !ok {
			return fmt.Errorf("store: pool holds freed page %d", pid)
		}
	}
	return nil
}
