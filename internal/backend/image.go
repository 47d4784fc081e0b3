package backend

import (
	"errors"

	"ocb/internal/disk"
)

// Image is a serializable snapshot of a paged backend: the disk content,
// the object table, and the geometry needed to reopen it. Volatile caches
// are not part of the image — a restored backend starts cold, like a
// freshly booted system. Backends that can be persisted implement
// Snapshotter (capture) and Restorer (replay into a freshly opened,
// empty instance of the same driver).
type Image struct {
	// Config is the geometry to reopen the backend with.
	Config Config
	// Disk is the exported page content.
	Disk *disk.Snapshot
	// NextOID is the OID counter to resume issuing from.
	NextOID OID
	// Objects is the object table.
	Objects []ImageObject
}

// ImageObject is one object-table entry of an Image.
type ImageObject struct {
	OID   OID
	Size  int
	Pages []disk.PageID
}

// Snapshotter is the optional persistence capability: capturing the
// backend's durable state for reuse across processes. Backends without it
// cannot be saved (core.Database.Save reports ErrNotSupported).
type Snapshotter interface {
	Image() (*Image, error)
}

// Restorer rebuilds a freshly opened backend from an image captured by the
// same driver's Snapshotter.
type Restorer interface {
	Restore(img *Image) error
}

// Restore opens the named driver with the image's geometry and replays the
// image into it. It is how core.Load turns a persisted database back into
// a live backend.
func Restore(name string, img *Image) (Backend, error) {
	if img == nil {
		// A nil image is corruption in the persisted data, not a missing
		// capability — it must not read as a benign ErrNotSupported skip.
		return nil, errors.New("backend: restore from nil image")
	}
	b, err := Open(name, img.Config)
	if err != nil {
		return nil, err
	}
	r, ok := b.(Restorer)
	if !ok {
		err = errNoCapability("image restore on backend " + name)
	} else {
		err = r.Restore(img)
	}
	if err != nil {
		// The opened driver may own files and goroutines (an ephemeral
		// waldisk a scratch directory): release it with the error.
		_ = Shutdown(b)
		return nil, err
	}
	return b, nil
}
