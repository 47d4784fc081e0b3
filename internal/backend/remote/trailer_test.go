package remote_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocb/internal/backend"
	"ocb/internal/backend/remote"
	"ocb/internal/core"
	"ocb/internal/disk"
	"ocb/internal/wire"
)

// TestDiskStatsNeverDecreaseAcrossConnections is the trailer's -race
// gate: four goroutines share one remote store over two pooled
// connections, mixing batches, updates and commits on a hosted paged store
// whose buffer is too small to hold them, and read DiskStats around every
// call. Replies on the two connections overtake each other, yet no
// counter may ever read lower after a call than before it.
func TestDiskStatsNeverDecreaseAcrossConnections(t *testing.T) {
	hosted, err := backend.Open("paged", backend.Config{PageSize: 1024, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.Open(remote.Name, backend.Config{Options: map[string]string{
		"addr": serve(t, hosted, "paged"), "conns": "2"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Shutdown(b) })
	oids := make([]backend.OID, 400)
	for i := range oids {
		if oids[i], err = b.Create(100); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	const clients, calls = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				lo := (c*97 + i*13) % (len(oids) - 16)
				before := b.DiskStats()
				var err error
				switch i % 3 {
				case 0:
					_, err = b.AccessBatch(oids[lo : lo+16])
				case 1:
					err = b.Update(oids[lo])
				default:
					err = b.Commit()
				}
				if err != nil {
					errs <- err
					return
				}
				if after := b.DiskStats(); !noLower(after, before) {
					errs <- fmt.Errorf("client %d call %d: DiskStats went from %+v to %+v", c, i, before, after)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := b.DiskStats(); st.TotalReads() == 0 || st.TotalWrites() == 0 {
		t.Fatalf("DiskStats = %+v: the mix made no reads or no writes to compare", st)
	}
}

// noLower reports whether every counter of a is at least its value in b.
func noLower(a, b disk.Stats) bool {
	for c := range a.Reads {
		if a.Reads[c] < b.Reads[c] || a.Writes[c] < b.Writes[c] {
			return false
		}
	}
	return true
}

// callCounts wraps a hosted backend and counts what the wire server asks
// of it. The server makes exactly one call per request frame, so frames is
// the number of request frames; diskStats counts its DiskStats reads.
type callCounts struct {
	backend.Backend
	frames, diskStats atomic.Int64
}

func (c *callCounts) Create(size int) (backend.OID, error) {
	c.frames.Add(1)
	return c.Backend.Create(size)
}

func (c *callCounts) Access(oid backend.OID) error {
	c.frames.Add(1)
	return c.Backend.Access(oid)
}

func (c *callCounts) AccessBatch(oids []backend.OID) (int, error) {
	c.frames.Add(1)
	return c.Backend.AccessBatch(oids)
}

func (c *callCounts) Update(oid backend.OID) error {
	c.frames.Add(1)
	return c.Backend.Update(oid)
}

func (c *callCounts) Delete(oid backend.OID) error {
	c.frames.Add(1)
	return c.Backend.Delete(oid)
}

func (c *callCounts) Exists(oid backend.OID) bool {
	c.frames.Add(1)
	return c.Backend.Exists(oid)
}

func (c *callCounts) SizeOf(oid backend.OID) (int, bool) {
	c.frames.Add(1)
	return c.Backend.SizeOf(oid)
}

func (c *callCounts) Commit() error {
	c.frames.Add(1)
	return c.Backend.Commit()
}

func (c *callCounts) DropCache() {
	c.frames.Add(1)
	c.Backend.DropCache()
}

func (c *callCounts) Stats() backend.Stats {
	c.frames.Add(1)
	return c.Backend.Stats()
}

func (c *callCounts) ResetStats() {
	c.frames.Add(1)
	c.Backend.ResetStats()
}

func (c *callCounts) SetIOClass(class disk.IOClass) {
	c.frames.Add(1)
	backend.SetIOClass(c.Backend, class)
}

func (c *callCounts) CheckIntegrity() error {
	c.frames.Add(1)
	return backend.CheckIntegrity(c.Backend)
}

func (c *callCounts) DiskStats() disk.Stats {
	c.diskStats.Add(1)
	return c.Backend.DiskStats()
}

// TestServeRemoteFramesPerOp counts the frames of an OCB phase with the
// serve-remote workload's mix (set, hierarchy, stochastic and update at
// 0.25 each) at one client. The engine's DiskStats reads around every
// operation cost no frame: the hosted store's counters are read once per
// reply, for the trailer, and never for a client DiskStats call.
func TestServeRemoteFramesPerOp(t *testing.T) {
	paged, err := backend.Open("paged", backend.Config{PageSize: 4096, BufferPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	hosted := &callCounts{Backend: paged}
	p := core.DefaultParams()
	p.NO, p.SupRef = 5000, 5000
	p.PSet, p.PSimple, p.PHier, p.PStoch, p.PUpdate = 0.25, 0, 0.25, 0.25, 0.25
	p.Backend = remote.Name
	p.BackendOptions = map[string]string{"addr": serve(t, hosted, "paged"), "conns": "2"}
	db, err := core.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })

	frames0, reads0 := hosted.frames.Load(), hosted.diskStats.Load()
	for i := 0; i < 100; i++ {
		db.Store.DiskStats()
	}
	if frames, reads := hosted.frames.Load()-frames0, hosted.diskStats.Load()-reads0; frames != 0 || reads != 0 {
		t.Fatalf("100 client DiskStats calls sent %d frames and read the hosted counters %d times, want 0 and 0", frames, reads)
	}
	res, err := core.NewRunner(db, nil).RunPhase("warm", 1000, p.Seed+2)
	if err != nil {
		t.Fatal(err)
	}
	frames, reads := hosted.frames.Load()-frames0, hosted.diskStats.Load()-reads0
	if reads != frames {
		t.Errorf("the server read the hosted counters %d times for %d request frames, want one read per reply", reads, frames)
	}
	if perOp := float64(frames) / float64(res.Executed); perOp > 1.5 {
		t.Errorf("%d frames for %d operations: %.3f per op, want at most 1.5", frames, res.Executed, perOp)
	} else {
		t.Logf("%d frames for %d operations: %.3f per op", frames, res.Executed, perOp)
	}
}

// TestReplyWithoutTrailerIsBrokenPeer serves a fake peer whose second
// reply is shorter than the trailer. The client treats it as a truncated
// frame: the call fails with a wrapped error and the connection is
// closed, not repooled.
func TestReplyWithoutTrailerIsBrokenPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hungUp := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			hungUp <- err
			return
		}
		defer conn.Close()
		var out wire.Buf
		var rbuf []byte
		for reply := 0; ; reply++ {
			if _, _, rbuf, err = wire.ReadFrame(conn, rbuf); err != nil {
				hungUp <- err
				return
			}
			out.Start(wire.StatusOK)
			if reply == 0 { // the Hello reply, trailer included
				out.U32(wire.Version)
				out.U32(0)
				out.Str("fake")
				out.Trailer(wire.Trailer{Seq: 1})
			}
			if err := out.Send(conn); err != nil {
				hungUp <- err
				return
			}
		}
	}()
	b := openRemote(t, ln.Addr().String())
	err = b.Access(1)
	if err == nil || !strings.Contains(err.Error(), "trailer") {
		t.Fatalf("Access over a reply without trailer: err = %v, want the short-reply error", err)
	}
	select {
	case err := <-hungUp:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("fake peer saw %v, want the client to close the connection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the client kept the connection after a reply without trailer")
	}
}
