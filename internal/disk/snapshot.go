package disk

// Snapshot is a serializable image of the disk's content: every page with
// its slot directory, plus the allocation cursor. Snapshots charge no I/O
// — they model an offline backup/restore of the device, used to persist
// generated databases across benchmark runs.
type Snapshot struct {
	PageSize int
	Next     PageID
	Pages    []Page
}

// Export captures a deep copy of the disk's state.
func (d *Disk) Export() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &Snapshot{PageSize: d.pageSize, Next: d.next}
	d.eachLocked(func(p *Page) {
		s.Pages = append(s.Pages, Page{ID: p.ID, Used: p.Used, Slots: append([]Slot(nil), p.Slots...)})
	})
	return s
}

// Import replaces the disk's content with the snapshot's. Statistics are
// reset; the I/O class is preserved. The catalogue is sized by s.Next, and
// every page id must lie in [1, s.Next): a caller holding a snapshot from
// outside the program checks that first (store.Restore does).
func (d *Disk) Import(s *Snapshot) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pageSize = s.PageSize
	d.next = s.Next
	dir := make([]*chunk, (uint64(s.Next)+chunkSize-1)>>chunkShift)
	for i := range dir {
		dir[i] = new(chunk)
	}
	d.dir.Store(&dir)
	d.live = 0
	for _, p := range s.Pages {
		cp := &Page{ID: p.ID, Used: p.Used, Slots: append([]Slot(nil), p.Slots...)}
		if d.slot(cp.ID).Swap(cp) == nil {
			d.live++
		}
	}
	for i := 0; i < int(numClasses); i++ {
		d.reads[i].Store(0)
		d.writes[i].Store(0)
	}
}
