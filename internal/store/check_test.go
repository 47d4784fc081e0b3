package store

import (
	"testing"
	"testing/quick"

	"ocb/internal/disk"
)

func TestCheckIntegrityCleanStore(t *testing.T) {
	s := openSmall(t)
	for i := 0; i < 20; i++ {
		if _, err := s.Create(40 + i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Create(900); err != nil { // large object
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIntegrityAfterChurn(t *testing.T) {
	s := openSmall(t)
	var oids []OID
	for i := 0; i < 30; i++ {
		oid, err := s.Create(50)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	for i := 0; i < 30; i += 3 {
		if err := s.Delete(oids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Relocate([][]OID{{oids[1], oids[4], oids[7]}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIntegrityDetectsCorruption(t *testing.T) {
	s := openSmall(t)
	oid, err := s.Create(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the page directory behind the store's back.
	pid, _ := s.PageOf(oid)
	pg, _ := s.Disk().Peek(pid)
	pg.Slots[0].Object = 999
	if err := s.CheckIntegrity(); err == nil {
		t.Fatal("corrupted slot accepted")
	}
	pg.Slots[0].Object = uint64(oid)
	pg.Used += 3
	if err := s.CheckIntegrity(); err == nil {
		t.Fatal("byte accounting drift accepted")
	}
	pg.Used -= 3
	s.live++
	if err := s.CheckIntegrity(); err == nil {
		t.Fatal("live-object count drift accepted")
	}
	s.live--

	// Sizes that disagree with the page run.
	big, err := s.Create(600) // a 3-page run
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		oid  OID
		size int32
	}{
		{oid, 0}, {oid, -7}, {oid, ObjectHeaderSize - 1}, {oid, 257}, {oid, 5000},
		{big, 256}, {big, 100}, {big, 512}, {big, 769}, {big, 5000},
	} {
		e := &s.table[c.oid]
		saved := e.size
		e.size = c.size
		if err := s.CheckIntegrity(); err == nil {
			t.Fatalf("object %d of size %d on %d pages accepted", c.oid, c.size, len(e.pages(new([1]disk.PageID))))
		}
		e.size = saved
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckIntegrityProperty drives random create/delete/relocate/access
// sequences and checks full store integrity after each batch.
func TestCheckIntegrityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s, err := Open(Config{PageSize: 512, BufferPages: 4})
		if err != nil {
			return false
		}
		var live []OID
		for _, op := range ops {
			switch op % 5 {
			case 0, 1: // create (sometimes large)
				size := int(op%400) + 1
				if op%17 == 0 {
					size = 600 + int(op%1000)
				}
				oid, err := s.Create(size)
				if err != nil {
					return false
				}
				live = append(live, oid)
			case 2: // delete
				if len(live) > 0 {
					idx := int(op) % len(live)
					if err := s.Delete(live[idx]); err != nil {
						return false
					}
					live = append(live[:idx], live[idx+1:]...)
				}
			case 3: // relocate a random prefix
				if len(live) > 1 {
					n := int(op)%len(live) + 1
					if _, err := s.Relocate([][]OID{live[:n]}); err != nil {
						return false
					}
				}
			case 4: // access
				if len(live) > 0 {
					if err := s.Access(live[int(op)%len(live)]); err != nil {
						return false
					}
				}
			}
		}
		return s.CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
