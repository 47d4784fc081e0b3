package store

import (
	"fmt"

	"ocb/internal/backend"
	"ocb/internal/disk"
)

// Image is the serializable snapshot type of the backend protocol; the
// store fills it with its disk content, object table and geometry. The
// buffer pool is not part of the image — a restored store starts with a
// cold cache, like a freshly booted system.
type Image = backend.Image

// ImageObject is one object-table entry.
type ImageObject = backend.ImageObject

// Image captures the store's persistent state (the backend.Snapshotter
// capability). Dirty pages are flushed first so the image is
// self-consistent. Snapshotting is a stop-the-world operation: it excludes
// every concurrent access.
func (s *Store) Image() (*Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pool.FlushAll(); err != nil {
		return nil, err
	}
	img := &Image{
		Config: backend.Config{
			PageSize:    s.disk.PageSize(),
			BufferPages: s.pool.Capacity(),
		},
		Disk:    s.disk.Export(),
		NextOID: OID(s.next.Load()),
	}
	var one [1]disk.PageID
	_ = s.forEachLoc(func(oid OID, l loc) error {
		img.Objects = append(img.Objects, ImageObject{
			OID:   oid,
			Size:  int(l.size),
			Pages: append([]disk.PageID(nil), l.pages(&one)...),
		})
		return nil
	})
	return img, nil
}

// Restore replays an image into this store (the backend.Restorer
// capability). It must be called on a freshly opened, empty store — the
// geometry the store was opened with is kept, the image supplies content.
func (s *Store) Restore(img *Image) error {
	if img == nil || img.Disk == nil {
		return fmt.Errorf("store: nil image")
	}
	// Both cursors issue from 1: id 0 is NilOID, and page 0 marks an empty
	// table entry.
	if img.Disk.PageSize <= 0 || img.Disk.Next == 0 || img.NextOID == NilOID {
		return fmt.Errorf("store: image page size %d, cursors %d and %d",
			img.Disk.PageSize, img.Disk.Next, img.NextOID)
	}
	// The page catalogue and the object table are indexed by id, so an id
	// the image's own cursors did not issue is rejected before it can size
	// either; a size that disagrees with its page run, or that a table
	// entry cannot hold, and a page id outside the image's cursor are
	// rejected before anything is installed.
	for i := range img.Disk.Pages {
		if id := img.Disk.Pages[i].ID; id == 0 || id >= img.Disk.Next {
			return fmt.Errorf("store: image page id %d outside [1, %d)", id, img.Disk.Next)
		}
	}
	for _, o := range img.Objects {
		if o.OID == NilOID || o.OID >= img.NextOID {
			return fmt.Errorf("store: image object id %d outside [1, %d)", o.OID, img.NextOID)
		}
		if err := checkRun(o.OID, o.Size, len(o.Pages), img.Disk.PageSize); err != nil {
			return fmt.Errorf("store: image %w", err)
		}
		// Page 0 would install as an empty table entry.
		for _, pid := range o.Pages {
			if pid == 0 || pid >= img.Disk.Next {
				return fmt.Errorf("store: image object %d on page %d outside [1, %d)", o.OID, pid, img.Disk.Next)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk.Import(img.Disk)
	s.next.Store(uint64(img.NextOID))
	s.idx.tree = nil // the next ordered call rebuilds it from this directory
	for _, o := range img.Objects {
		l := loc{home: o.Pages[0], size: int32(o.Size)}
		if len(o.Pages) > 1 {
			run := append([]disk.PageID(nil), o.Pages...)
			l.run = &run
		}
		s.setLoc(o.OID, l)
	}
	// Verify the directory agrees with the pages.
	var one [1]disk.PageID
	return s.forEachLoc(func(oid OID, l loc) error {
		for _, pid := range l.pages(&one) {
			pg, ok := s.disk.Peek(pid)
			if !ok {
				return fmt.Errorf("store: image object %d references missing page %d", oid, pid)
			}
			if !pg.Has(uint64(oid)) {
				return fmt.Errorf("store: image object %d not on page %d", oid, pid)
			}
		}
		return nil
	})
}
