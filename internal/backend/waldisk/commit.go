package waldisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"ocb/internal/backend"
)

// chanPool recycles the reply channels of group-commit requests so a
// commit does not allocate in steady state.
var chanPool = sync.Pool{New: func() any { return make(chan error, 1) }}

// Commit implements backend.Backend: every staged mutation becomes
// durable per the fsync policy. With nothing staged anywhere in the store
// a commit is free — the fast path of read-only transactions. The fast
// path requires both an empty staged list and no flush in flight: a
// concurrent commit may already have swapped this client's ops out, and
// success must not be reported until that batch is durable (falling
// through to flush blocks on logMu until it is, and surfaces the sticky
// error if it failed).
func (s *Store) Commit() error {
	s.mu.RLock()
	err := s.usableLocked()
	empty := len(s.staged) == 0 && !s.flushing
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	if empty {
		return nil
	}
	switch s.policy {
	case PolicyAlways:
		return s.flush(true)
	case PolicyNone:
		return s.flush(false)
	}
	// Group commit: enqueue with the committer goroutine and wait for the
	// round that covers this request's staged ops.
	s.committerOnce.Do(func() {
		s.wg.Add(1)
		go s.committer()
	})
	ch := chanPool.Get().(chan error)
	select {
	case s.reqCh <- ch:
	case <-s.quitCh:
		chanPool.Put(ch)
		return errClosed
	}
	err = <-ch
	chanPool.Put(ch)
	return err
}

// committer is the group-commit goroutine: each round collapses every
// queued Commit request into one log append and one fsync. When a gather
// window is configured, the round stays open for that long after its
// first request before flushing — trading a bounded latency bump for
// fewer, larger fsyncs under concurrency.
func (s *Store) committer() {
	defer s.wg.Done()
	var batch []chan error
	for {
		batch = batch[:0]
		select {
		case <-s.quitCh:
			// Final round: serve whatever is still queued, then exit.
			for {
				select {
				case ch := <-s.reqCh:
					batch = append(batch, ch)
				default:
					if len(batch) > 0 {
						err := s.flush(true)
						for _, ch := range batch {
							ch <- err
						}
					}
					return
				}
			}
		case ch := <-s.reqCh:
			batch = append(batch, ch)
			if s.gather > 0 {
				t := time.NewTimer(s.gather)
			window:
				for {
					select {
					case ch := <-s.reqCh:
						batch = append(batch, ch)
					case <-t.C:
						break window
					case <-s.quitCh:
						// Shutdown cuts the window short; this round still
						// flushes, and the next loop iteration runs the
						// final one.
						break window
					}
				}
				t.Stop()
			}
		gather:
			for {
				select {
				case ch := <-s.reqCh:
					batch = append(batch, ch)
				default:
					break gather
				}
			}
			err := s.flush(true)
			for _, ch := range batch {
				ch <- err
			}
		}
	}
}

// flush writes one commit batch: every staged record followed by a commit
// marker, appended to the current segment as a single write (one write
// I/O) and fsynced when sync is set. Once the batch is durable a new
// index snapshot relocating the committed objects is published, the
// batch's pending-overlay entries are cleared, and any cached pre-images
// of updated or deleted objects are retired — in that order, so a
// concurrent reader can never re-install a stale residency that survives
// (cacheInstall re-checks the snapshot pointer after its Add).
func (s *Store) flush(sync bool) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	ops := s.staged
	s.staged = s.spare[:0]
	s.flushing = len(ops) > 0
	flushGen := s.gen
	s.gen++
	s.mu.Unlock()
	if len(ops) == 0 {
		s.spare = ops
		return nil
	}

	need := frameHeader + 9 // the commit marker
	for _, op := range ops {
		need += op.frameLen()
	}
	if s.curOff > 0 && s.curOff+int64(need) > s.segSize {
		if _, err := s.addSegment(); err != nil {
			return s.fail(err)
		}
	}
	segID := uint32(len(s.segs))
	cur := s.segs[segID-1]
	base := s.curOff

	s.commitSeq++
	buf := s.encBuf[:0]
	for _, op := range ops {
		buf = appendOp(buf, op)
	}
	buf = appendCommit(buf, s.commitSeq)
	s.encBuf = buf

	if err := s.append(cur, buf); err != nil {
		return s.fail(err)
	}
	if sync {
		if err := cur.Sync(); err != nil {
			return s.fail(err)
		}
	}
	s.curOff += int64(len(buf))
	s.segBytes[segID-1] += int64(len(buf))
	s.writes[s.classIdx()].Add(1)

	// The batch is durable: build the committed delta over the previous
	// snapshot. Ops applied in order, so the latest version wins.
	prev := s.snap.Load()
	delta := make(map[backend.OID]entry, len(ops))
	var dels map[backend.OID]struct{}
	net := 0
	off := base
	for _, op := range ops {
		rlen := int32(op.frameLen())
		switch op.op {
		case opCreate:
			delta[op.oid] = entry{size: op.size, seg: segID, off: off, rlen: rlen}
			net++
		case opUpdate:
			if e, ok := delta[op.oid]; ok {
				e.seg, e.off, e.rlen = segID, off, rlen
				delta[op.oid] = e
			} else if e, ok := prev.resolve(op.oid); ok {
				e.seg, e.off, e.rlen = segID, off, rlen
				delta[op.oid] = e
			}
			// An object deleted since staging has no version left to move;
			// the record is dead on arrival, like any superseded version.
		case opDelete:
			delete(delta, op.oid)
			if dels == nil {
				dels = make(map[backend.OID]struct{})
			}
			dels[op.oid] = struct{}{}
			net--
		}
		off += int64(rlen)
	}
	s.meterDelta(prev, delta, dels)
	node := &snapshot{
		delta:  delta,
		dels:   dels,
		base:   prev,
		segs:   append([]*os.File(nil), s.segs...),
		count:  prev.count + net,
		weight: len(delta) + len(dels),
	}
	node.mergeUp()

	// Publish and clear the overlay atomically with respect to mu, so a
	// reader sees each object either pending or in the new snapshot, never
	// neither. Only entries of this batch's generation are cleared — one
	// re-staged while the append ran belongs to the next batch.
	s.mu.Lock()
	s.snap.Store(node)
	for _, op := range ops {
		if p, ok := s.pending[op.oid]; ok && p.gen <= flushGen {
			delete(s.pending, op.oid)
		}
	}
	s.pendNet -= int64(net)
	s.pendN.Store(int64(len(s.pending)))
	s.flushing = false
	s.mu.Unlock()

	// Retire cached pre-images of every object this batch moved or killed.
	// After the publish above, a racing reader that re-installs one is
	// forced (by cacheInstall's snapshot re-check) to validate against the
	// new snapshot — between the two, no stale residency survives.
	if s.cache != nil {
		for _, op := range ops {
			if op.op != opCreate {
				s.cache.Invalidate(uint64(op.oid))
			}
		}
	}
	s.spare = ops
	return nil
}

// append writes the batch at the current segment offset, routing it
// through the fault-injection hook when one is set.
func (s *Store) append(f *os.File, b []byte) error {
	if hook := s.FailureHook; hook != nil {
		n, err := hook(b)
		if err != nil {
			if n > 0 {
				if n > len(b) {
					n = len(b)
				}
				_, _ = f.WriteAt(b[:n], s.curOff)
			}
			return err
		}
	}
	_, err := f.WriteAt(b, s.curOff)
	return err
}

// fail records a sticky append failure: the log's physical tail is now
// unknown, so every further mutation and commit refuses until the store
// is reopened (recovery re-establishes the committed prefix).
func (s *Store) fail(err error) error {
	werr := fmt.Errorf("waldisk: log append failed: %w", err)
	s.mu.Lock()
	if s.err == nil {
		s.err = werr
	}
	s.flushing = false // the sticky error now gates every path
	s.mu.Unlock()
	return werr
}

// Close implements backend.Durable: stop the committer and the
// compactor, flush and fsync everything staged, write the checkpoint and
// release the files. The store must be quiescent. Closing a store whose
// log append already failed skips the checkpoint — the in-memory state
// is ahead of the committed log, and recovery from the segments is the
// truth.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closing || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	s.mu.Unlock()

	close(s.quitCh)
	s.wg.Wait()
	// Defensive: reply to any request that slipped in after the
	// committer's final round.
	for {
		select {
		case ch := <-s.reqCh:
			ch <- errClosed
			continue
		default:
		}
		break
	}

	err := s.flush(true)
	if err == nil {
		// Under PolicyNone earlier batches were never synced; a clean
		// close makes the whole log durable regardless of policy.
		s.logMu.Lock()
		err = s.segs[len(s.segs)-1].Sync()
		if err == nil {
			err = s.writeCheckpoint()
		}
		s.logMu.Unlock()
	} else if errors.Is(err, errClosed) {
		err = nil
	}

	s.mu.Lock()
	s.closed = true
	segs := s.segs
	s.mu.Unlock()
	for _, f := range segs {
		if f == nil {
			continue
		}
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	if s.ephemeral {
		// A store opened without a dir is scratch: nobody can ever reach
		// its temporary directory again, so keeping it would only leak.
		if rerr := os.RemoveAll(s.dir); err == nil && rerr != nil {
			err = rerr
		}
	}
	return err
}

// Reopen implements backend.Durable: a fresh instance over the same data
// directory with the same knobs, recovering whatever the log holds. The
// receiver must have been closed first.
func (s *Store) Reopen() (backend.Backend, error) {
	if s.ephemeral {
		return nil, fmt.Errorf("waldisk: an ephemeral store (no dir option) cannot be reopened; Close removed its scratch directory")
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if !closed {
		return nil, fmt.Errorf("waldisk: Reopen of a store that is still open")
	}
	c := Config{
		Dir:          s.dir,
		Policy:       s.policy,
		SegmentSize:  s.segSize,
		PageSize:     s.pageSize,
		Gather:       s.gather,
		CompactEvery: s.compactEvery,
	}
	if s.cachePages > 0 {
		c.CachePages = s.cachePages
	} else {
		c.CachePages = -1
	}
	if s.compactRatio > 0 {
		c.CompactRatio = s.compactRatio
	} else {
		c.CompactRatio = -1
	}
	return Open(c)
}

// compactOption spells the store's compact ratio as the option value
// Image round-trips.
func (s *Store) compactOption() string {
	if s.compactRatio <= 0 {
		return "off"
	}
	return strconv.FormatFloat(s.compactRatio, 'g', -1, 64)
}

// Image implements backend.Snapshotter: a store.Image-compatible snapshot
// of the committed object table. Everything staged is flushed first so
// the image is self-consistent. The returned Config carries the store's
// tuning knobs but deliberately not the data directory: restoring an
// image is a copy into a fresh store, not an alias of the original's
// files.
func (s *Store) Image() (*backend.Image, error) {
	if err := s.flush(true); err != nil {
		return nil, err
	}
	cachepages := "0"
	if s.cachePages > 0 {
		cachepages = strconv.Itoa(s.cachePages)
	}
	img := &backend.Image{
		Config: backend.Config{Options: map[string]string{
			"fsync":        s.policy.String(),
			"segsize":      strconv.FormatInt(s.segSize, 10),
			"cachepages":   cachepages,
			"gather":       s.gather.String(),
			"compact":      s.compactOption(),
			"compactevery": s.compactEvery.String(),
		}},
	}
	s.mu.RLock()
	img.NextOID = backend.OID(s.next)
	s.mu.RUnlock()
	for oid, e := range s.snap.Load().flatten() {
		img.Objects = append(img.Objects, backend.ImageObject{OID: oid, Size: int(e.size)})
	}
	sort.Slice(img.Objects, func(i, j int) bool { return img.Objects[i].OID < img.Objects[j].OID })
	return img, nil
}

// Restore implements backend.Restorer: replay an image into this freshly
// opened, empty store. The objects are written through the normal log
// path and committed, so the restored state is immediately durable; the
// restored store starts with zeroed statistics, like core.Load promises.
func (s *Store) Restore(img *backend.Image) error {
	if img == nil {
		return fmt.Errorf("waldisk: restore from nil image")
	}
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.snap.Load().count != 0 || len(s.pending) != 0 || len(s.staged) != 0 || s.next != 1 {
		s.mu.Unlock()
		return fmt.Errorf("waldisk: restore into a non-empty store")
	}
	for _, o := range img.Objects {
		if o.OID == backend.NilOID || o.Size <= 0 {
			s.mu.Unlock()
			return fmt.Errorf("waldisk: corrupt image object %d (size %d)", o.OID, o.Size)
		}
		s.pending[o.OID] = pend{size: int64(o.Size), gen: s.gen, state: pendCreated}
		s.pendNet++
		s.staged = append(s.staged, stagedOp{op: opCreate, oid: o.OID, size: int64(o.Size)})
		if uint64(o.OID) >= s.next {
			s.next = uint64(o.OID) + 1
		}
	}
	if uint64(img.NextOID) > s.next {
		s.next = uint64(img.NextOID)
	}
	s.pendN.Store(int64(len(s.pending)))
	s.mu.Unlock()
	if err := s.flush(true); err != nil {
		return err
	}
	s.ResetStats()
	return nil
}

// CheckIntegrity implements backend.Checker: every committed object's log
// record is read back and verified — frame intact, CRC matching, the
// record names this object and is a version-bearing op, and a create
// record's size agrees with the index. Far too slow for the hot path;
// invaluable after crash recovery.
func (s *Store) CheckIntegrity() error {
	// Resolve one snapshot and read through it: log records are immutable
	// once written, and the read gate keeps the snapshot's segment files
	// alive against compaction for the duration — a full-store audit
	// otherwise takes no lock, so it cannot stall writers behind file I/O.
	ge := s.gate.enter()
	defer s.gate.exit(ge)
	snap := s.snap.Load()
	idx := snap.flatten()

	var buf [readBufSize]byte
	for oid, e := range idx {
		if e.size < backend.ObjectHeaderSize {
			return fmt.Errorf("waldisk: object %d: impossible size %d", oid, e.size)
		}
		if e.seg == 0 || int(e.seg) > len(snap.segs) || snap.segs[e.seg-1] == nil || e.rlen < frameHeader+9 || e.rlen > readBufSize {
			return fmt.Errorf("waldisk: object %d: record location out of range (seg %d, len %d)", oid, e.seg, e.rlen)
		}
		b := buf[:e.rlen]
		if _, err := snap.segs[e.seg-1].ReadAt(b, e.off); err != nil {
			return fmt.Errorf("waldisk: object %d: reading record: %w", oid, err)
		}
		if !validRecordFor(b, oid) {
			return fmt.Errorf("waldisk: object %d: corrupt record at segment %d offset %d", oid, e.seg, e.off)
		}
		if op := b[frameHeader]; op == opCreate || op == opUpdate {
			if got := int64(binary.LittleEndian.Uint64(b[frameHeader+9 : frameHeader+17])); got != e.size {
				return fmt.Errorf("waldisk: object %d: record size %d, index says %d", oid, got, e.size)
			}
		}
	}
	return nil
}
