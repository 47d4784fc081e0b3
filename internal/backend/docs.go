// Package backend defines the system-under-test contract of the benchmark:
// the object protocol every OCB workload drives (the Backend interface),
// the optional capabilities a store may additionally offer (Placer,
// Relocator, IOClassifier, Ranger, Snapshotter/Restorer), and a
// database/sql-style driver registry so new stores plug in without
// touching the workload layers.
//
// The paper's headline claim is genericity — one parameterized benchmark
// aimed at arbitrary object stores. This package is where that genericity
// lives in the code: core, cluster and the impersonated benchmarks (oo1,
// oo7, hypermodel, dstc) speak only these interfaces, and a backend is
// selected by name at run time. The rest of this comment is the
// driver-author guide.
//
// # Writing a backend driver
//
// A driver is one package that (a) implements the Backend interface on
// some store, and (b) registers an opener under a name:
//
//	func init() {
//		backend.Register("mystore", func(cfg backend.Config) (backend.Backend, error) {
//			if err := backend.CheckOptions("mystore", cfg.Options, "myknob"); err != nil {
//				return nil, err
//			}
//			return openMyStore(cfg)
//		})
//	}
//
// Link the driver into binaries by adding a blank import to
// internal/backend/all, the driver bundle every command, example and test
// imports. That is the whole integration surface: the workload layers
// (core, cluster, oo1, oo7, hypermodel, dstc) never name concrete stores.
//
// # The core contract
//
// Backend is the protocol every workload uses: Create, Access,
// AccessBatch, Update, Delete, Exists, SizeOf, Commit, DropCache,
// Stats/DiskStats/ResetStats. Non-negotiable requirements:
//
//   - OIDs are issued sequentially from 1 in creation order. The
//     generation algorithms assert object #i got OID i.
//   - Dead OIDs return an error wrapping ErrNoSuchObject and never
//     resurrect; negative sizes return ErrBadSize wrapped.
//   - AccessBatch(oids) must charge exactly the I/Os and counters the
//     equivalent sequence of Access calls would, and on error report the
//     completed prefix length.
//   - Every method is safe for concurrent use (the benchmark runs
//     CLIENTN > 1), and the Access/AccessBatch/Update hot path must not
//     allocate in steady state — the executors enforce zero allocations
//     per transaction so harness overhead stays out of measured times.
//
// Run backendtest.Conformance against the opener; it checks all of the
// above mechanically and is wired into CI for every registered driver.
//
// # Optional capabilities
//
// Everything else is a capability discovered by type assertion, so a
// backend without a page abstraction still runs every workload:
//
//   - Placer (PageSize/PageOf/PagesOf/Layout): physical placement
//     inspection, used to verify clustering layouts.
//   - Relocator (Relocate): physical reorganization. Clustering policies
//     require it; on backends without it they return ErrNotSupported and
//     the experiments print a skip line instead of failing.
//   - IOClassifier (SetIOClass): routing I/O charges between the
//     transaction and clustering-overhead accounting classes.
//   - Ranger (Scan/Seek/SetKey/ScanKey): an ordered index over the live
//     OID set plus an integer attribute index ordered by (key, OID). The
//     query workload category (internal/query, `ocb run -scenario
//     query`) and the compare table's point-lookup/range-scan columns
//     require it; ops on backends without it record "skipped (no
//     Ranger)" through the AsRanger helper's ErrNoRanger, which wraps
//     ErrNotSupported. See "Implementing Ranger" below.
//   - Snapshotter/Restorer (Image/Restore): persistence of a generated
//     database across processes (core.Database.Save / core.Load).
//   - Durable (Close/Reopen): state on stable storage that survives the
//     process. Implementing it opts the driver into the conformance
//     suite's durability section and enables crash-recovery testing.
//
// Implement the capabilities whose semantics the store genuinely has;
// never stub one (a Relocate that moves nothing would silently corrupt
// every clustering experiment run against the driver).
//
// # Implementing Ranger
//
// The Ranger contract is small but exact, and the conformance suite's
// capability-gated Ranger section checks every clause against a sorted
// reference model:
//
//   - Scan(lo, hi, limit, desc, dst) returns live OIDs in [lo, hi], both
//     bounds inclusive, ascending (or exactly reversed with desc),
//     hi == NilOID meaning "to the end", lo > hi an empty result rather
//     than an error, and limit > 0 truncating to the first limit hits.
//     Deleted OIDs never appear. Results append to dst so steady-state
//     scans with a preallocated buffer stay allocation-free.
//   - Seek(oid, desc) resolves to the nearest live OID at-or-after
//     (at-or-before with desc) the bound — dead OIDs resolve to their
//     live neighbor in the seek direction.
//   - SetKey(oid, key) binds an int64 attribute, replacing any previous
//     binding (old index entries must vanish); dead OIDs return
//     ErrNoSuchObject wrapped. ScanKey(lo, hi, limit, dst) selects by
//     key range in (key, OID) order with the same bound semantics.
//   - Index reads charge no I/O. The index answers "which objects";
//     callers price the objects themselves by faulting the result
//     (Access/AccessBatch), exactly like the query workload does.
//     Repeated calls must return bit-identical results: an index fed
//     from an unordered directory (a map) sorts what it reads — never
//     expose that order.
//
// One in-tree model, two users: internal/ordindex, a B+tree with chained
// leaves that takes no lock of its own. btree is that index behind a
// Backend shell; paged/internal/store builds one beside its OID-indexed
// object table on the first ordered call and updates it on every Create,
// Delete and SetKey. The wire protocol forwards the whole interface (one op code
// per method, scans one round trip) when the Hello handshake advertises
// CapRanger, so remote-over-btree serves scans; the remote driver's
// client only asserts Ranger when the hosted store has it, which is why
// its open wraps the plain client in a rangerStore conditionally — Go
// method sets are static, so "maybe has a capability" must be decided at
// open time.
//
// # Writing a durable driver
//
// A driver that owns real files (waldisk is the in-tree model) carries
// contracts the in-memory drivers never face:
//
//   - Write-ahead logging. Stage mutations in memory and let Commit move
//     them to the log as one batch ending in a commit marker. Replay on
//     open must apply records strictly batch-wise: a batch is visible iff
//     its marker is intact, so a crash can never surface a half-applied
//     batch. (Commit is store-global by contract, so a concurrent
//     client's commit hardens everything staged; document the resulting
//     batch-level — not per-client — crash atomicity, as waldisk does.)
//     Frame every record with a length + checksum so a torn write is
//     detected, and physically truncate the discarded tail so later
//     appends start from a known-good position.
//
//   - Fsync policy. Expose durability timing as an option rather than
//     hard-coding it (waldisk: fsync=always | group | none). Group commit
//     — a committer goroutine collapsing concurrent Commit calls into one
//     append + fsync — is where multi-client throughput comes from. The
//     policy must change timing only: identical workloads must leave
//     identical contents under every policy.
//
//   - Recovery contract. Close flushes, fsyncs and (optionally) writes a
//     checkpoint summarizing the log so the next open skips replay; the
//     checkpoint is an optimization and must never be the only copy —
//     validate it (magic, CRC) and fall back to full replay when it is
//     missing or invalid. After a failed append the physical tail is
//     unknown: refuse further mutations (sticky error) and let Reopen's
//     recovery re-establish the committed prefix. Skip the checkpoint on
//     such a close — the in-memory state is ahead of the committed log.
//
//   - Honest I/O. Fault committed objects in with real reads and charge
//     them (verify the record checksum while at it); then the engine's
//     I/O attribution reports true disk numbers. Keep the fault path
//     allocation-free (pool the read buffers) — the AllocsPerRun gates
//     run against every registered driver.
//
// Run the conformance suite plus fault-injection tests that cut the log
// mid-record and mid-batch (waldisk's FailureHook shows the pattern), and
// assert policy-invariance of final images across your fsync settings.
//
// # Caching reads and compacting history
//
// Once the fault path is honest, two subsystems separate a correct
// durable driver from a fast one (waldisk implements both; its package
// doc has the full design):
//
//   - A read cache. Track which objects are resident (buffer.ObjectCache
//     is the shared byte-budgeted LRU built for this) and skip
//     the disk read on a hit; invalidate on Update/Delete no later than
//     commit publish, so a resident copy can never outlive or shadow its
//     object. Size it with a "cachepages" option — that exact key is a
//     convention the buffer-sweep ablation relies on to dial any
//     backend's cache through -backend-opt (cachepages=0 must disable) —
//     and report the budget in Stats().Pages and the hit/miss/eviction
//     counters in Stats().Pool, which is where the reports and the sweep
//     read them. DropCache must really forget: the conformance suite's
//     CacheCoherence section probes for a cache via the I/O counters and
//     holds every caching backend to the coherence contract (backends
//     without classified read I/O or without a cache skip it cleanly).
//
//   - Compaction. A log-structured store's disk grows with history, not
//     live data, until something rewrites survivors and deletes dead
//     segments. Do the work on a background goroutine, never inline with
//     commits; rewrite through the normal append path so replay order
//     stays version order; fsync the rewrite before unlinking its victim
//     whatever the fsync policy; and charge the I/O to the clustering
//     class so reports price maintenance separately from transactions.
//     Two subtleties are load-bearing: only ever compact the oldest live
//     segment (that is what makes dropping its tombstones safe without
//     scanning the rest of the log), and make every surviving record
//     self-sufficient for replay — waldisk's update records carry the
//     object size precisely because the create they supersede may no
//     longer exist. Readers must never wait: publish immutable index
//     snapshots and drain in-flight reads (a read gate) before unlinking
//     files.
//
// # Serving a backend over the network
//
// Any registered local driver can be hosted behind a TCP listener (`ocb
// serve`, internal/wire) and measured through the "remote" driver
// (internal/backend/remote, -backend-opt addr=host:port). The wire
// protocol mirrors the core contract exactly — every Backend method but
// DiskStats has an op code, AccessBatch stays one round trip, and the
// sentinel errors above round-trip as status codes so errors.Is behaves
// identically in-process and remote. DiskStats makes no call: every reply
// ends in a trailer with the hosted store's disk counters, and the client
// answers from the newest one. Capabilities split into forwarded and degraded:
//
//   - Forwarded: IOClassifier, Checker and Ranger relay to the hosted
//     store when the Hello handshake reports it has them (a remote
//     SetIOClass, CheckIntegrity or Scan runs server-side; scans return
//     their whole result in one round trip).
//   - Degraded: Placer, Relocator and Snapshotter/Restorer are not
//     remoted — they are local-layout and local-file concerns,
//     and a wire version would either ship whole images or lie about
//     placement. Experiments needing them print their usual skip line.
//   - Durable has client-side meaning: remote Close/Reopen cycles the
//     connection pool while the served store keeps its state, so the
//     conformance durability section passes against the server's
//     survival, not a local file's.
//
// Remote drivers register with RegisterWith and Info{Remote: true},
// which keeps them out of ListLocal() — the list every-backend sweeps
// iterate — because they need a served endpoint to open; `ocb serve`
// refuses to host one (no proxy chains).
//
// # Options
//
// Config's typed fields (PageSize, BufferPages) are
// common geometry hints — ignore the ones without meaning for the store.
// Config.Options is the strict part: it carries the user's explicit
// -backend-opt key=value flags, and the driver must reject unknown keys
// via CheckOptions so a typo fails with the valid keys named rather than
// silently benchmarking a default.
//
// # Static analysis
//
// Several of the rules above are machine-checked by ocblint (`go run
// ./cmd/ocblint ./...`, package internal/lint), which CI runs before
// anything else. For a driver author the relevant analyzers are: senterr
// — return the Err* sentinels of this package (wrapped with %w if you
// add context) and match them only with errors.Is, never == or string
// comparison, or remote operation will silently break; locksafe — do not
// fsync, pread, append to a file or touch the network while one of your
// store locks is held (snapshot under the lock, do the I/O outside, as
// waldisk's flush does), and if a lock legitimately exists to serialize
// log I/O, declare it at the field with //ocblint:iolock; allocfree —
// annotate your fault and access paths //ocblint:allocfree so the
// analyzer holds them to the same zero-allocation bar the AllocsPerRun
// gates measure at run time.
package backend
