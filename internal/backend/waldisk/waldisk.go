// Package waldisk registers the "waldisk" backend: a disk-backed object
// store that persists to real files through a write-ahead log with group
// commit — the driver that demonstrates the benchmark's genericity
// against a system with genuinely durable storage.
//
// The store is log-structured: every mutation (create, update, delete) is
// a CRC-framed record appended to a segment file, and the log IS the data
// file — an object's latest committed record is its on-disk home, and
// Access faults it in with a real pread (charged as one read I/O), so the
// engine's I/O attribution reports true disk numbers rather than a
// simulation. Three mechanisms make it a real storage engine rather than
// a WAL-with-preads:
//
//   - A byte-budgeted read cache (buffer.ObjectCache, one LRU over the
//     whole budget) fronts the pread path: committed hot reads stop paying one pread each, cache
//     residency is invalidated when an update or delete commits (fully
//     coherent with group commit), DropCache genuinely drops something,
//     and the buffer-sweep ablations apply to the durable driver. Sized
//     by the "cachepages" option (× the page size); 0 disables it.
//   - MVCC-style snapshot reads: the committed index is an immutable
//     delta chain published through one atomic pointer (snapshot.go), so
//     readers never wait on the in-flight commit. Uncommitted state is a
//     pending overlay readers consult only when one exists.
//   - Background segment compaction (compact.go): the oldest mostly-dead
//     segment's survivors are rewritten to the log head and the file is
//     reclaimed, bounding disk growth; rate-limited in its own goroutine
//     so its cost surfaces in tail latency like a real LSM.
//
// Commit durability follows the fsync policy (the "fsync" backend option):
//
//   - always: every Commit call appends its batch and fsyncs it itself.
//   - group (the default): a committer goroutine batches concurrent Commit
//     calls — whatever requests arrive while one fsync is in flight are
//     collapsed into the next single append + fsync. The "gather" option
//     holds each round open for a window to collapse more.
//   - none: batches are appended but never fsynced until Close (the OS
//     page cache is trusted, the classic "async" trade).
//
// The policy changes timing only, never contents: mutations are staged in
// memory and reach the log exactly at commit, so replay after a crash
// reconstructs precisely the committed batches — a batch whose commit
// marker is torn or missing is discarded in its entirety, never applied
// half-way. The atomicity unit is the commit batch, and Commit is
// store-global by the Backend contract ("all pending modifications"),
// exactly like the paged store flushing every client's dirty pages: under
// concurrent clients one client's commit also hardens whatever another
// client has staged so far. Transaction-precise crash boundaries therefore
// hold exactly when no mutation is left open across another client's
// commit — trivially at CLIENTN=1, where every transaction commits before
// the next begins (the crash-recovery tests pin this case); a multi-client
// crash recovers a batch-consistent state that may include a prefix of a
// mutation still open at the crash.
//
// The driver implements the optional capabilities that make sense on
// disk — IOClassifier (real read/write counters per accounting class;
// compaction always charges the clustering/overhead class),
// Snapshotter/Restorer (store.Image-compatible checkpoints, so ocbgen can
// persist and reload generated databases), Checker (every index entry's
// record is re-read and CRC-verified), and Durable (close + reopen from
// the same directory, the hook the conformance durability section and the
// crash-recovery tests drive). It has no page abstraction, so Placer and
// Relocator are deliberately absent: clustering experiments report their
// capability skip exactly as they do on flatmem.
package waldisk

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ocb/internal/backend"
	"ocb/internal/buffer"
	"ocb/internal/disk"
)

// Name is the driver's registered name.
const Name = "waldisk"

// DefaultSegmentSize is the byte threshold at which the log rolls to a
// fresh segment file when no "segsize" option overrides it.
const DefaultSegmentSize = 4 << 20

// DefaultCachePages sizes the read cache when neither the "cachepages"
// option nor the Config.CachePages geometry hint says otherwise.
const DefaultCachePages = 512

// Compile-time proof of the driver's capability surface.
var (
	_ backend.Backend      = (*Store)(nil)
	_ backend.IOClassifier = (*Store)(nil)
	_ backend.Snapshotter  = (*Store)(nil)
	_ backend.Restorer     = (*Store)(nil)
	_ backend.Checker      = (*Store)(nil)
	_ backend.Durable      = (*Store)(nil)
)

func init() {
	backend.Register(Name, func(cfg backend.Config) (backend.Backend, error) {
		// The read cache is sized by the driver's own "cachepages" option
		// (default DefaultCachePages), NOT by the generic BufferPages
		// frame budget: that budget is the simulated page pool's geometry,
		// and a log-structured file store has no page abstraction for it
		// to mean anything. The typed PageSize hint still applies — it is
		// the cache's byte unit.
		if err := backend.CheckOptions(Name, cfg.Options, "dir", "fsync", "segsize", "cachepages", "gather", "compact", "compactevery"); err != nil {
			return nil, err
		}
		c := Config{
			Dir:      cfg.Options["dir"],
			PageSize: cfg.PageSize,
		}
		if v, ok := cfg.Options["fsync"]; ok {
			p, err := ParsePolicy(v)
			if err != nil {
				return nil, fmt.Errorf("backend %q: %w", Name, err)
			}
			c.Policy = p
		}
		if v, ok := cfg.Options["segsize"]; ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("backend %q: option segsize=%q, want a positive byte count", Name, v)
			}
			c.SegmentSize = n
		}
		if v, ok := cfg.Options["cachepages"]; ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("backend %q: option cachepages=%q, want a page count >= 0 (0 disables the read cache)", Name, v)
			}
			if n == 0 {
				c.CachePages = -1
			} else {
				c.CachePages = n
			}
		}
		if v, ok := cfg.Options["gather"]; ok {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("backend %q: option gather=%q, want a non-negative duration like 0s, 200us or 1ms", Name, v)
			}
			c.Gather = d
		}
		if v, ok := cfg.Options["compact"]; ok {
			if v == "off" {
				c.CompactRatio = -1
			} else {
				r, err := strconv.ParseFloat(v, 64)
				if err != nil || r <= 0 || r > 1 {
					return nil, fmt.Errorf("backend %q: option compact=%q, want off or a live-byte ratio in (0, 1]", Name, v)
				}
				c.CompactRatio = r
			}
		}
		if v, ok := cfg.Options["compactevery"]; ok {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("backend %q: option compactevery=%q, want a positive duration like 100ms", Name, v)
			}
			c.CompactEvery = d
		}
		st, err := Open(c)
		if err != nil {
			return nil, err
		}
		return st, nil
	})
}

// Policy selects when commits reach stable storage.
type Policy int

// Fsync policies, in the order of the "fsync" option's valid values.
const (
	// PolicyGroup batches concurrent commits into one fsync (default).
	PolicyGroup Policy = iota
	// PolicyAlways fsyncs every commit individually.
	PolicyAlways
	// PolicyNone never fsyncs until Close.
	PolicyNone
)

// ParsePolicy parses the "fsync" option value, naming the valid set on
// error.
func ParsePolicy(v string) (Policy, error) {
	switch v {
	case "always":
		return PolicyAlways, nil
	case "group":
		return PolicyGroup, nil
	case "none":
		return PolicyNone, nil
	}
	return 0, fmt.Errorf("fsync policy %q, want always | group | none", v)
}

// String returns the option spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyNone:
		return "none"
	default:
		return "group"
	}
}

// Config parameterizes Open. The zero value opens a fresh store in a
// temporary directory with group commit, the default segment size, the
// default read cache and background compaction.
type Config struct {
	// Dir is the data directory; reopening an existing directory recovers
	// its committed state. Empty creates a fresh temporary directory and
	// marks the store ephemeral: a scratch instance whose Close removes
	// the directory again and which cannot be reopened — name a directory
	// to make the store durable.
	Dir string
	// Policy is the fsync policy (zero value: PolicyGroup).
	Policy Policy
	// SegmentSize is the roll threshold in bytes (0: DefaultSegmentSize).
	SegmentSize int64
	// CachePages sizes the read cache in pages of PageSize bytes:
	// 0 means DefaultCachePages, negative disables the cache entirely.
	CachePages int
	// PageSize is the byte unit CachePages is denominated in
	// (0: disk.DefaultPageSize).
	PageSize int
	// Gather is the group-commit gather window: after a round's first
	// request arrives, the committer keeps collecting requests for this
	// long before the append + fsync (0: no window — serve whatever has
	// queued, the classic behavior).
	Gather time.Duration
	// CompactRatio is the live-byte fraction under which a sealed segment
	// is compacted (0: DefaultCompactRatio; negative: compaction off).
	CompactRatio float64
	// CompactEvery is the background compactor's scan period
	// (0: DefaultCompactEvery).
	CompactEvery time.Duration
}

// entry is one live object's committed index slot: its stored size
// (header included) and the location of its latest committed log record.
type entry struct {
	size int64
	off  int64
	seg  uint32
	rlen int32
}

// stagedOp is one mutation awaiting its commit batch.
type stagedOp struct {
	oid  backend.OID
	size int64 // header-included; opCreate only
	op   byte
}

// RecoveryInfo reports what Open's recovery did — the observable the
// crash tests assert on.
type RecoveryInfo struct {
	// FromCheckpoint is true when a valid checkpoint supplied the index
	// and replay resumed from its position instead of the log's start.
	FromCheckpoint bool
	// SegmentsScanned counts segment files replay read.
	SegmentsScanned int
	// BatchesReplayed counts commit markers honored.
	BatchesReplayed int
	// RecordsReplayed counts mutation records applied (committed ones).
	RecordsReplayed int
	// TailRecordsDiscarded counts complete records dropped because their
	// commit marker never made it to disk.
	TailRecordsDiscarded int
	// TailBytesTruncated is how many bytes of torn or uncommitted log
	// tail recovery cut away (including whole later segments).
	TailBytesTruncated int64
}

// Store is the disk-backed WAL store. All object operations are safe for
// concurrent use; Close requires the store to be quiescent (no in-flight
// operations), like every stop-the-world path of the protocol.
type Store struct {
	dir       string
	policy    Policy
	segSize   int64
	ephemeral bool // Dir was auto-created scratch; Close removes it
	gather    time.Duration

	// FailureHook, if set, intercepts every physical log append with the
	// bytes about to be written; it returns how many bytes actually reach
	// the file before the append fails with the returned error. Used by
	// the fault-injection tests to tear the log mid-record and mid-batch.
	// Set it only while the store is quiescent (it also intercepts the
	// compactor's rewrites).
	FailureHook func(b []byte) (int, error)

	// mu guards the mutable transaction state: the pending overlay, the
	// staged-op list, the OID counter, the sticky error and the lifecycle
	// flags. The committed index is NOT under it — readers resolve the
	// lock-free snapshot chain (snapshot.go).
	mu      sync.RWMutex
	pending map[backend.OID]pend
	pendNet int64  // pending creates minus deletes: Objects = snap.count + pendNet
	gen     uint64 // staged-op generation; flush clears pends of its own gen only
	staged  []stagedOp
	next    uint64
	err     error // sticky append failure: all further mutations refuse
	closing bool
	closed  bool
	// flushing is true while a flush has swapped staged ops out but not
	// yet made them durable; Commit's empty-staged fast path must not
	// report success while ops that might be this client's are in that
	// window.
	flushing bool

	// pendN mirrors len(pending) so the read hot path can skip the
	// overlay — and mu entirely — when nothing is staged.
	pendN atomic.Int64

	// snap is the committed index: an immutable snapshot chain readers
	// load without locks. Swung under mu by flush (coupled with the
	// pending clear) and under logMu by compaction.
	snap atomic.Pointer[snapshot]

	// gate tracks in-flight snapshot readers so compaction can retire a
	// segment file only after everyone who could hold its handle drains.
	gate readGate

	// cache is the read cache over committed records; nil when
	// disabled. cachePages is its configured capacity, reported as
	// Stats.Pages so the buffer-sweep ablations see a real knob; pageSize
	// is kept so Reopen reconstructs the same geometry.
	cache      *buffer.ObjectCache
	cachePages int
	pageSize   int

	// index is recovery scratch: openSegments/loadCheckpoint/recoverLog
	// build the committed table here single-threaded, then Open moves it
	// into the root snapshot and nils it. Never touched while live.
	index map[backend.OID]entry

	// logMu serializes physical log appends: encoding, rolling, writing,
	// syncing, the commit sequence and the segment table live under it.
	//
	//ocblint:iolock -- this lock exists to serialize log file I/O
	logMu     sync.Mutex
	segs      []*os.File // by segment id - 1; nil = compacted away
	segLive   []int64    // live record bytes per segment slot
	segBytes  []int64    // total bytes appended per segment slot
	curOff    int64
	commitSeq uint64
	encBuf    []byte
	spare     []stagedOp // recycled staged backing array

	// Group commit: Commit requests queue on reqCh; the committer
	// goroutine (started lazily) collapses everything queued into one
	// append + fsync per round.
	committerOnce sync.Once
	reqCh         chan chan error
	quitCh        chan struct{}
	wg            sync.WaitGroup

	// compactMu serializes compaction rounds (the background ticker and
	// tests calling CompactNow directly) — each round rewrites and
	// reclaims files.
	//
	//ocblint:iolock -- this lock exists to serialize compaction I/O
	compactMu    sync.Mutex
	compactRatio float64 // <= 0: compaction off
	compactEvery time.Duration

	reads           [2]atomic.Uint64 // indexed by disk.IOClass
	writes          [2]atomic.Uint64
	class           atomic.Int32
	objectsAccessed atomic.Uint64

	recovery RecoveryInfo

	bufPool  sync.Pool // *[readBufSize]byte for Access preads
	refPool  sync.Pool // *[]faultRef scratch for AccessBatch
	spanPool sync.Pool // *[]byte span buffers for coalesced batch reads
}

// Coalesced batch reads. Records committed together sit next to each
// other in the log, and the traversals read them back together — the
// clustering a log-structured file gives away for free. AccessBatch
// therefore merges physically adjacent record faults (ascending, within
// a page-sized gap, same segment) into one bounded pread instead of one
// syscall per record. Only the physical read is shared: every record in
// the span is still CRC-verified and charged its own read I/O in batch
// order, so the counters — the benchmark's metric — stay exactly those
// of the equivalent Access sequence (the conformance suite pins this).
const (
	// spanReadSize bounds one coalesced pread.
	spanReadSize = 64 << 10
	// spanGap is the largest dead-byte gap worth reading through rather
	// than splitting the span: a page width, the unit a paged store would
	// drag in anyway.
	spanGap = int64(disk.DefaultPageSize)
)

// faultRef is one committed object's record location, resolved from the
// batch's snapshot so AccessBatch can perform its preads outside every
// lock. cached marks refs optimistically installed in the read cache,
// for post-read revalidation.
type faultRef struct {
	f      *os.File
	off    int64
	oid    backend.OID
	idx    int32
	rlen   int32
	seg    uint32
	cached bool
}

// Open opens (or creates) a store over a data directory, replaying the
// log to rebuild the object index.
func Open(c Config) (*Store, error) {
	dir := c.Dir
	ephemeral := false
	var err error
	if dir == "" {
		if dir, err = os.MkdirTemp("", "ocb-waldisk-"); err != nil {
			return nil, fmt.Errorf("waldisk: creating data directory: %w", err)
		}
		ephemeral = true
	} else if err = os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("waldisk: data directory %s: %w", dir, err)
	}
	segSize := c.SegmentSize
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	cachePages := c.CachePages
	if cachePages == 0 {
		cachePages = DefaultCachePages
	} else if cachePages < 0 {
		cachePages = 0
	}
	pageSize := c.PageSize
	if pageSize <= 0 {
		pageSize = disk.DefaultPageSize
	}
	compactRatio := c.CompactRatio
	if compactRatio == 0 {
		compactRatio = DefaultCompactRatio
	} else if compactRatio < 0 {
		compactRatio = 0
	}
	compactEvery := c.CompactEvery
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	s := &Store{
		dir:          dir,
		policy:       c.Policy,
		segSize:      segSize,
		ephemeral:    ephemeral,
		gather:       c.Gather,
		cachePages:   cachePages,
		pageSize:     pageSize,
		compactRatio: compactRatio,
		compactEvery: compactEvery,
		pending:      make(map[backend.OID]pend),
		index:        make(map[backend.OID]entry),
		next:         1,
		reqCh:        make(chan chan error, 128),
		quitCh:       make(chan struct{}),
		bufPool:      sync.Pool{New: func() any { return new([readBufSize]byte) }},
		refPool:      sync.Pool{New: func() any { r := make([]faultRef, 0, 64); return &r }},
		spanPool:     sync.Pool{New: func() any { b := make([]byte, spanReadSize); return &b }},
	}
	if cachePages > 0 {
		// One shard: its hits and misses are those of one LRU over the
		// budget, as the paged store's buffer pool's are.
		cache, err := buffer.NewObjectCache(int64(cachePages)*int64(pageSize), 1)
		if err != nil {
			return nil, fmt.Errorf("waldisk: sizing read cache: %w", err)
		}
		s.cache = cache
	}
	if err := s.openSegments(); err != nil {
		s.closeSegs()
		return nil, err
	}
	startSeg, startOff := s.loadCheckpoint()
	if len(s.segs) == 0 {
		if _, err := s.addSegment(); err != nil {
			return nil, err
		}
	} else {
		if err := s.recoverLog(startSeg, startOff); err != nil {
			s.closeSegs()
			return nil, err
		}
	}
	fi, err := s.segs[len(s.segs)-1].Stat()
	if err != nil {
		s.closeSegs()
		return nil, fmt.Errorf("waldisk: sizing current segment: %w", err)
	}
	s.curOff = fi.Size()
	if err := s.initSegMeters(); err != nil {
		s.closeSegs()
		return nil, err
	}
	// Publish the recovered table as the root snapshot; from here on the
	// committed index lives only in the chain.
	s.snap.Store(&snapshot{
		delta:  s.index,
		segs:   append([]*os.File(nil), s.segs...),
		count:  len(s.index),
		weight: len(s.index),
	})
	s.index = nil
	if s.compactRatio > 0 {
		s.wg.Add(1)
		go s.compactor()
	}
	return s, nil
}

// initSegMeters sizes segBytes from the segment files and recomputes
// segLive from the recovered index. Runs single-threaded at the end of
// Open.
func (s *Store) initSegMeters() error {
	s.segLive = make([]int64, len(s.segs))
	s.segBytes = make([]int64, len(s.segs))
	for i, f := range s.segs {
		if f == nil {
			continue
		}
		fi, err := f.Stat()
		if err != nil {
			return fmt.Errorf("waldisk: sizing segment %d: %w", i+1, err)
		}
		s.segBytes[i] = fi.Size()
	}
	for _, e := range s.index {
		s.segLive[e.seg-1] += int64(e.rlen)
	}
	return nil
}

// closeSegs releases the segment descriptors on an Open that fails after
// opening them.
func (s *Store) closeSegs() {
	for _, f := range s.segs {
		if f != nil {
			f.Close()
		}
	}
	s.segs = nil
}

// Dir returns the store's data directory (resolved, when Open created a
// temporary one).
func (s *Store) Dir() string { return s.dir }

// FsyncPolicy returns the policy the store was opened with.
func (s *Store) FsyncPolicy() Policy { return s.policy }

// Recovery returns what Open's replay did.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// errClosed is returned for operations on a closed store.
var errClosed = fmt.Errorf("waldisk: store is closed")

// usableLocked reports whether mutations may proceed; caller holds mu.
func (s *Store) usableLocked() error {
	if s.closing || s.closed {
		return errClosed
	}
	return s.err
}

// Create implements backend.Backend: sequential OIDs from 1 in creation
// order, header charged on top of the payload. The create record is
// staged; it reaches the log at the next commit.
func (s *Store) Create(payloadSize int) (backend.OID, error) {
	if payloadSize < 0 {
		return backend.NilOID, fmt.Errorf("%w: %d bytes", backend.ErrBadSize, payloadSize)
	}
	size := int64(payloadSize) + backend.ObjectHeaderSize
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return backend.NilOID, err
	}
	oid := backend.OID(s.next)
	s.next++
	s.pending[oid] = pend{size: size, gen: s.gen, state: pendCreated}
	s.pendNet++
	s.pendN.Store(int64(len(s.pending)))
	s.staged = append(s.staged, stagedOp{op: opCreate, oid: oid, size: size})
	s.mu.Unlock()
	return oid, nil
}

// Access implements backend.Backend: fault the object in. A committed
// object is genuinely read back from its log record (one pread, CRC
// verified, one read I/O charged) unless the read cache holds it; an
// object whose latest version is still staged is served from memory for
// free, like a hit in the write buffer. With nothing pending the whole
// path is lock-free: cache probe, or snapshot resolve + pread.
//
//ocblint:allocfree -- steady-state hot path
func (s *Store) Access(oid backend.OID) error {
	if s.pendN.Load() != 0 {
		s.mu.RLock()
		p, ok := s.pending[oid]
		s.mu.RUnlock()
		if ok {
			switch p.state {
			case pendDeleted:
				return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
			case pendCreated:
				s.objectsAccessed.Add(1)
				return nil
			}
			// pendUpdated: the committed home still serves reads, but the
			// record is about to move — do not cache it.
			return s.readCommitted(oid, false)
		}
	}
	if s.cache != nil && s.cache.Probe(uint64(oid)) {
		s.objectsAccessed.Add(1)
		return nil
	}
	return s.readCommitted(oid, true)
}

// readCommitted faults oid's committed record through the current
// snapshot, charging one read I/O, and (when cacheable) installs it in
// the read cache.
//
//ocblint:allocfree -- steady-state hot path
func (s *Store) readCommitted(oid backend.OID, cacheable bool) error {
	ge := s.gate.enter()
	snap := s.snap.Load()
	e, ok := snap.resolve(oid)
	if !ok {
		s.gate.exit(ge)
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	err := s.fault(snap.segs[e.seg-1], e.off, e.rlen, oid)
	s.gate.exit(ge)
	if err != nil {
		return err
	}
	s.objectsAccessed.Add(1)
	if cacheable && s.cache != nil {
		s.cacheInstall(oid, e, snap)
	}
	return nil
}

// cacheInstall makes a just-read record resident, then revalidates: if a
// commit or compaction published a newer snapshot while the pread ran
// and the object's home moved (or died), the install is retired. The
// install-then-check order pairs with flush invalidating after its
// publish — whichever runs second sees the other's effect, so a stale
// residency can never survive both.
func (s *Store) cacheInstall(oid backend.OID, e entry, snap *snapshot) {
	s.cache.Add(uint64(oid), e.size)
	if cur := s.snap.Load(); cur != snap {
		if e2, ok := cur.resolve(oid); !ok || e2.seg != e.seg || e2.off != e.off {
			s.cache.Invalidate(uint64(oid))
		}
	}
}

// AccessBatch implements backend.Backend: exactly the reads, counters
// and cache transitions the equivalent Access sequence would produce; a
// dead OID truncates the batch at the completed prefix. The walk
// resolves every committed object against one snapshot (taking mu only
// when a pending overlay exists) with cache installs issued in sequence
// order, and the real preads happen outside all locks — a long scan
// chunk must not stall concurrent mutators for the duration of its disk
// I/O. The read gate keeps the snapshot's segment files open until the
// preads finish.
//
//ocblint:allocfree -- steady-state hot path
func (s *Store) AccessBatch(oids []backend.OID) (int, error) {
	if len(oids) == 0 {
		return 0, nil
	}
	rp := s.refPool.Get().(*[]faultRef)
	refs := (*rp)[:0]
	prefix := len(oids) // objects preceding the first dead OID
	var dead backend.OID
	ge := s.gate.enter()
	snap := s.snap.Load()
	overlay := s.pendN.Load() != 0
	if overlay {
		s.mu.RLock()
	}
	for i, oid := range oids {
		var st uint8
		if overlay {
			if p, ok := s.pending[oid]; ok {
				st = p.state
			}
		}
		if st == pendDeleted {
			prefix, dead = i, oid
			break
		}
		if st == pendCreated {
			continue // staged in memory; free
		}
		if st == 0 && s.cache != nil && s.cache.Probe(uint64(oid)) {
			continue // resident; the pread is saved
		}
		e, ok := snap.resolve(oid)
		if !ok {
			if st == pendUpdated {
				continue // committed home vanished mid-race; staged version serves
			}
			prefix, dead = i, oid
			break
		}
		cached := false
		if st == 0 && s.cache != nil {
			// Install optimistically, in the same order the Access sequence
			// would; a failed pread or a concurrent move retires it below.
			s.cache.Add(uint64(oid), e.size)
			cached = true
		}
		refs = append(refs, faultRef{f: snap.segs[e.seg-1], off: e.off, oid: oid, idx: int32(i), rlen: e.rlen, seg: e.seg, cached: cached})
	}
	if overlay {
		s.mu.RUnlock()
	}
	bp := s.spanPool.Get().(*[]byte)
	span := *bp
	cls := s.classIdx()
	for i := 0; i < len(refs); {
		// Grow the span while the next record sits ahead of the previous
		// one in the same segment, within a page-width gap and the span
		// buffer. Refs are in batch order, so spans are too — failure
		// semantics stay those of the one-record-at-a-time sequence.
		start := refs[i].off
		end := start + int64(refs[i].rlen)
		j := i + 1
		for j < len(refs) &&
			refs[j].seg == refs[i].seg &&
			refs[j].off >= end && refs[j].off-end <= spanGap &&
			refs[j].off+int64(refs[j].rlen)-start <= int64(len(span)) {
			end = refs[j].off + int64(refs[j].rlen)
			j++
		}
		b := span[:end-start]
		if _, err := refs[i].f.ReadAt(b, start); err != nil {
			return s.batchFail(refs, i, ge, rp, bp),
				fmt.Errorf("waldisk: faulting object %d: %w", refs[i].oid, err)
		}
		for ri := i; ri < j; ri++ {
			r := &refs[ri]
			rb := b[r.off-start : r.off-start+int64(r.rlen)]
			if !validRecordFor(rb, r.oid) {
				return s.batchFail(refs, ri, ge, rp, bp),
					fmt.Errorf("waldisk: object %d: corrupt log record at offset %d", r.oid, r.off)
			}
			s.reads[cls].Add(1)
		}
		i = j
	}
	s.spanPool.Put(bp)
	s.gate.exit(ge)
	if s.cache != nil {
		s.revalidateRefs(snap, refs)
	}
	*rp = refs[:0]
	s.refPool.Put(rp)
	s.objectsAccessed.Add(uint64(prefix))
	if prefix < len(oids) {
		return prefix, fmt.Errorf("%w: %d", backend.ErrNoSuchObject, dead)
	}
	return prefix, nil
}

// batchFail unwinds a failed AccessBatch at ref index ri: the failing
// read and everything after it never happened in the equivalent Access
// sequence (staged objects between the faults are free and cannot fail),
// so their optimistic cache installs are dropped and the counters stop
// exactly at the failing record. It returns the completed prefix length;
// callers pair it with the error in the return statement itself.
func (s *Store) batchFail(refs []faultRef, ri int, ge uint32, rp *[]faultRef, bp *[]byte) int {
	if s.cache != nil {
		for _, rr := range refs[ri:] {
			if rr.cached {
				s.cache.Invalidate(uint64(rr.oid))
			}
		}
	}
	s.spanPool.Put(bp)
	s.gate.exit(ge)
	idx := int(refs[ri].idx)
	s.objectsAccessed.Add(uint64(idx))
	*rp = refs[:0]
	s.refPool.Put(rp)
	return idx
}

// revalidateRefs retires optimistic cache installs whose object moved
// while the batch's preads ran (a commit or compaction published a newer
// snapshot). Same check as cacheInstall's, amortized over the batch.
func (s *Store) revalidateRefs(snap *snapshot, refs []faultRef) {
	cur := s.snap.Load()
	if cur == snap {
		return
	}
	for i := range refs {
		r := &refs[i]
		if !r.cached {
			continue
		}
		if e, ok := cur.resolve(r.oid); !ok || e.seg != r.seg || e.off != r.off {
			s.cache.Invalidate(uint64(r.oid))
		}
	}
}

// faultCurrent faults oid's current version for Update's access half:
// staged versions and cache residents are free; a committed version is
// genuinely pread. No counters beyond the read I/O are charged — Update
// accounts the access itself after staging succeeds.
func (s *Store) faultCurrent(oid backend.OID) error {
	var st uint8
	if s.pendN.Load() != 0 {
		s.mu.RLock()
		if p, ok := s.pending[oid]; ok {
			st = p.state
		}
		s.mu.RUnlock()
	}
	switch st {
	case pendDeleted:
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	case pendCreated:
		return nil
	}
	if st == 0 && s.cache != nil && s.cache.Probe(uint64(oid)) {
		return nil
	}
	ge := s.gate.enter()
	snap := s.snap.Load()
	e, ok := snap.resolve(oid)
	if !ok {
		s.gate.exit(ge)
		if st == pendUpdated {
			return nil
		}
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	err := s.fault(snap.segs[e.seg-1], e.off, e.rlen, oid)
	s.gate.exit(ge)
	return err
}

// Update implements backend.Backend: Access plus an in-place
// modification. The current version is faulted in first — a failed read
// (corrupt record) fails the whole Update with nothing staged, so a
// transaction that reported failure can never reach the log. On success
// the new version is staged as an update record; at commit the object's
// durable home moves to it (log-structured stores never overwrite) and
// the flush retires any cached pre-image.
func (s *Store) Update(oid backend.OID) error {
	if err := s.faultCurrent(oid); err != nil {
		return err
	}
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	var size int64
	if p, ok := s.pending[oid]; ok {
		if p.state == pendDeleted {
			// Deleted between the fault and the modification: either
			// serialization order is valid, and this one has no object left
			// to modify.
			s.mu.Unlock()
			return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
		}
		if p.state != pendCreated {
			p.state = pendUpdated
		}
		p.gen = s.gen
		s.pending[oid] = p
		size = p.size
	} else {
		e, ok := s.snap.Load().resolve(oid)
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
		}
		s.pending[oid] = pend{size: e.size, gen: s.gen, state: pendUpdated}
		s.pendN.Store(int64(len(s.pending)))
		size = e.size
	}
	// The update record carries the (unchanged) size: if compaction later
	// reclaims the create, this record alone must rebuild the object.
	s.staged = append(s.staged, stagedOp{op: opUpdate, oid: oid, size: size})
	s.mu.Unlock()
	// Belt to the flush's suspenders: the cached pre-image is already
	// unreachable (the pending overlay intercepts reads), but drop it now
	// so the cache never claims bytes the store would not serve.
	if s.cache != nil {
		s.cache.Invalidate(uint64(oid))
	}
	s.objectsAccessed.Add(1)
	return nil
}

// Delete implements backend.Backend: the object disappears immediately
// (a pending tombstone shadows the committed index) and a tombstone
// record is staged; its OID never resurrects (the OID counter only moves
// forward).
func (s *Store) Delete(oid backend.OID) error {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if p, ok := s.pending[oid]; ok {
		if p.state == pendDeleted {
			s.mu.Unlock()
			return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
		}
	} else if _, ok := s.snap.Load().resolve(oid); !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	s.pending[oid] = pend{gen: s.gen, state: pendDeleted}
	s.pendNet--
	s.pendN.Store(int64(len(s.pending)))
	s.staged = append(s.staged, stagedOp{op: opDelete, oid: oid})
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.Invalidate(uint64(oid))
	}
	return nil
}

// Exists implements backend.Backend.
func (s *Store) Exists(oid backend.OID) bool {
	if s.pendN.Load() != 0 {
		s.mu.RLock()
		p, ok := s.pending[oid]
		s.mu.RUnlock()
		if ok {
			return p.state != pendDeleted
		}
	}
	_, ok := s.snap.Load().resolve(oid)
	return ok
}

// SizeOf implements backend.Backend.
func (s *Store) SizeOf(oid backend.OID) (int, bool) {
	if s.pendN.Load() != 0 {
		s.mu.RLock()
		p, ok := s.pending[oid]
		s.mu.RUnlock()
		if ok {
			switch p.state {
			case pendDeleted:
				return 0, false
			case pendCreated:
				return int(p.size), true
			}
			// pendUpdated: size is unchanged by Update; fall through to the
			// committed entry.
		}
	}
	e, ok := s.snap.Load().resolve(oid)
	if !ok {
		return 0, false
	}
	return int(e.size), true
}

// DropCache implements backend.Backend: empty the read cache, so the
// next access to every committed object pays its pread again — the cold
// restart the benchmark phases simulate. Staged mutations are pending
// transaction state, not cache, and survive.
func (s *Store) DropCache() {
	if s.cache != nil {
		s.cache.DropAll()
	}
}

// Stats implements backend.Backend. Pool carries the read cache's
// hit/miss/eviction counters and Pages its configured page capacity
// (zero when the cache is disabled) — the observables the buffer-sweep
// ablations vary.
func (s *Store) Stats() backend.Stats {
	s.mu.RLock()
	n := s.snap.Load().count + int(s.pendNet)
	s.mu.RUnlock()
	st := backend.Stats{
		Disk:            s.DiskStats(),
		ObjectsAccessed: s.objectsAccessed.Load(),
		Objects:         n,
	}
	if s.cache != nil {
		st.Pool = s.cache.Stats()
		st.Pages = s.cachePages
	}
	return st
}

// DiskStats implements backend.Backend: the real file I/O counters,
// lock-free (the executors sample it around every transaction).
func (s *Store) DiskStats() disk.Stats {
	var ds disk.Stats
	ds.Reads[disk.Transaction] = s.reads[disk.Transaction].Load()
	ds.Reads[disk.Clustering] = s.reads[disk.Clustering].Load()
	ds.Writes[disk.Transaction] = s.writes[disk.Transaction].Load()
	ds.Writes[disk.Clustering] = s.writes[disk.Clustering].Load()
	return ds
}

// ResetStats implements backend.Backend: every counter restarts from
// zero (durable state and cache residency are untouched).
func (s *Store) ResetStats() {
	for i := range s.reads {
		s.reads[i].Store(0)
		s.writes[i].Store(0)
	}
	s.objectsAccessed.Store(0)
	if s.cache != nil {
		s.cache.ResetStats()
	}
}

// SetIOClass implements backend.IOClassifier: subsequent file I/O is
// charged to the given accounting class.
func (s *Store) SetIOClass(c disk.IOClass) { s.class.Store(int32(c)) }

// classIdx returns the current accounting class clamped to the two
// classes the protocol defines.
func (s *Store) classIdx() int {
	c := int(s.class.Load())
	if c != int(disk.Clustering) {
		return int(disk.Transaction)
	}
	return c
}

// fault reads an object's log record back from disk, verifies its frame
// and identity, and charges one read I/O. The read buffer is pooled so
// the hot path stays allocation-free.
//
//ocblint:allocfree -- steady-state hot path
func (s *Store) fault(f *os.File, off int64, rlen int32, oid backend.OID) error {
	if rlen < frameHeader+9 || rlen > readBufSize {
		return fmt.Errorf("waldisk: object %d: corrupt record length %d", oid, rlen)
	}
	bp := s.bufPool.Get().(*[readBufSize]byte)
	buf := bp[:rlen]
	_, err := f.ReadAt(buf, off)
	ok := err == nil && validRecordFor(buf, oid)
	s.bufPool.Put(bp)
	if err != nil {
		return fmt.Errorf("waldisk: faulting object %d: %w", oid, err)
	}
	if !ok {
		return fmt.Errorf("waldisk: object %d: corrupt log record at offset %d", oid, off)
	}
	s.reads[s.classIdx()].Add(1)
	return nil
}

// segName returns the file name of segment id.
func segName(id uint32) string { return fmt.Sprintf("wal-%08d.log", id) }

// segPath returns the full path of segment id.
func (s *Store) segPath(id uint32) string { return filepath.Join(s.dir, segName(id)) }
