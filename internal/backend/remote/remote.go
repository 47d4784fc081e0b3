// Package remote is the network client driver: a backend.Backend whose
// store lives in another process behind `ocb serve`, reached over the
// wire protocol (package wire). Registering it as an ordinary driver
// means every suite, scenario file, experiment and the compare table can
// measure a network-attached store with nothing but
//
//	-backend remote -backend-opt addr=host:port
//
// and the serialization and round-trip cost lands in the same I/O and
// latency columns as any other backend's faulting cost.
//
// Concurrency comes from a connection pool: each in-flight request owns
// one pooled connection (the protocol is strictly sequential per
// connection), so CLIENTN concurrent clients fan out over up to CLIENTN
// connections, dialed on demand and kept for reuse up to the `conns`
// option (default 16). A connection that hits a transport error is
// closed, not repooled — the next request redials, so one dropped
// connection never wedges the others.
//
// Disk counters: every reply ends in the wire trailer, the hosted store's
// disk counters with the server's sequence number. The store keeps the
// trailer with the highest sequence number, so DiskStats answers from the
// newest reply this client has received and makes no call: exact at one
// client, and never decreasing between resets at any number of clients.
//
// Capabilities: the protocol forwards the full Backend contract plus
// IOClassifier and Checker (vacuous when the hosted store lacks them) and
// Ranger (present on the client exactly when the handshake advertises it,
// via a wrapper type).
// Placement, relocation and snapshotting are not forwarded —
// capability-gated experiments see the capability absent and report their
// usual skip. Close/Reopen (backend.Durable) act on the client: Close
// releases the pool idempotently, Reopen redials — the server's store
// and its durability are untouched either way.
package remote

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"ocb/internal/backend"
	"ocb/internal/disk"
	"ocb/internal/wire"
)

// Name is the driver's registry name.
const Name = "remote"

// DefaultPoolSize is how many idle connections the pool retains when the
// conns option is unset. Dialing is on demand, so this caps reuse, not
// concurrency.
const DefaultPoolSize = 16

// dialTimeout bounds connection establishment to the server.
const dialTimeout = 10 * time.Second

func init() {
	backend.RegisterWith(Name, open, backend.Info{Remote: true})
}

// open validates the options and dials the server once to run the Hello
// handshake, so a bad address or incompatible server fails at Open, not
// mid-benchmark.
func open(cfg backend.Config) (backend.Backend, error) {
	if err := backend.CheckOptions(Name, cfg.Options, "addr", "conns"); err != nil {
		return nil, err
	}
	addr := cfg.Options["addr"]
	if addr == "" {
		return nil, fmt.Errorf("backend %q: option addr=host:port is required (start a server with `ocb serve`)", Name)
	}
	poolSize := DefaultPoolSize
	if v, ok := cfg.Options["conns"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("backend %q: option conns=%q: want a positive integer", Name, v)
		}
		poolSize = n
	}
	s := &Store{addr: addr, pool: make(chan *conn, poolSize)}
	c, err := s.dial()
	if err != nil {
		return nil, err
	}
	s.hosted = c.hosted
	s.caps = c.caps
	s.put(c)
	if s.caps&wire.CapRanger != 0 {
		// The Ranger methods live on a wrapper type, so the capability's
		// type assertion succeeds exactly when the handshake advertises
		// it — a remote over flatmem stays a plain Backend.
		return rangerStore{s}, nil
	}
	return s, nil
}

// Store is a remote backend instance: an address, a pool of idle
// connections, the hosted store's identity from the handshake, and the
// newest reply trailer.
type Store struct {
	addr   string
	hosted string
	caps   uint32

	mu     sync.Mutex
	closed bool
	last   wire.Trailer // highest-sequence trailer received
	pool   chan *conn
}

// conn is one pooled protocol connection with its reusable buffers.
type conn struct {
	nc     net.Conn
	br     *bufio.Reader
	out    wire.Buf
	rbuf   []byte
	hosted string
	caps   uint32
}

// dial opens and handshakes one connection.
func (s *Store) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", s.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("backend %q: %w", Name, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // request/response protocol: don't batch tiny frames
	}
	c := &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	c.out.Start(wire.OpHello)
	c.out.U32(wire.Version)
	status, r, t, err := c.roundTrip()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("backend %q: handshake: %w", Name, err)
	}
	s.observe(t)
	if status != wire.StatusOK {
		msg := r.Str()
		nc.Close()
		return nil, fmt.Errorf("backend %q: handshake refused: %s", Name, msg)
	}
	if v := r.U32(); v != wire.Version {
		nc.Close()
		return nil, fmt.Errorf("backend %q: server speaks protocol %d, client %d", Name, v, wire.Version)
	}
	c.caps = r.U32()
	c.hosted = r.Str()
	if err := r.Err(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("backend %q: handshake: %w", Name, err)
	}
	return c, nil
}

// roundTrip writes the frame staged in c.out and reads the response,
// returning its status, a reader over its own fields and its trailer.
func (c *conn) roundTrip() (uint8, wire.Reader, wire.Trailer, error) {
	if err := c.out.Send(c.nc); err != nil {
		return 0, wire.Reader{}, wire.Trailer{}, err
	}
	status, payload, grown, err := wire.ReadFrame(c.br, c.rbuf)
	c.rbuf = grown
	if err != nil {
		return 0, wire.Reader{}, wire.Trailer{}, err
	}
	body, t, err := wire.SplitTrailer(payload)
	if err != nil {
		return 0, wire.Reader{}, wire.Trailer{}, err
	}
	return status, wire.NewReader(body), t, nil
}

// observe keeps t when it is the newest trailer seen: a reply that
// overtook an older one on another connection never moves the counters
// back, and a reset reaches them on the next reply.
func (s *Store) observe(t wire.Trailer) {
	s.mu.Lock()
	if t.Seq > s.last.Seq {
		s.last = t
	}
	s.mu.Unlock()
}

// errClosed is the error every operation returns after Close.
func errClosed() error {
	return fmt.Errorf("backend %q: store is closed", Name)
}

// get borrows an idle connection or dials a new one.
func (s *Store) get() (*conn, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, errClosed()
	}
	select {
	case c := <-s.pool:
		return c, nil
	default:
		return s.dial()
	}
}

// put returns a connection to the pool, closing it when the pool is full
// or the store already closed.
func (s *Store) put(c *conn) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		c.nc.Close()
		return
	}
	select {
	case s.pool <- c:
	default:
		c.nc.Close()
	}
}

// call runs one round trip: borrow a connection (the request must
// already be staged by stage), send, receive, repool. Transport errors
// close the connection and surface as wrapped errors; protocol-level
// error statuses are decoded to the exact backend sentinels.
func (s *Store) call(stage func(*wire.Buf), decode func(status uint8, r *wire.Reader) error) error {
	c, err := s.get()
	if err != nil {
		return err
	}
	stage(&c.out)
	status, r, t, err := c.roundTrip()
	if err != nil {
		c.nc.Close()
		return fmt.Errorf("backend %q: %s: %w", Name, s.addr, err)
	}
	s.observe(t)
	if err := decode(status, &r); err != nil {
		s.put(c)
		return err
	}
	if err := r.Err(); err != nil {
		// A response shorter than its own shape is a broken peer.
		c.nc.Close()
		return fmt.Errorf("backend %q: %s: %w", Name, s.addr, err)
	}
	s.put(c)
	return nil
}

// decodeEmpty handles responses with no success payload.
func decodeEmpty(status uint8, r *wire.Reader) error {
	if status != wire.StatusOK {
		return wire.DecodeError(status, r.Str())
	}
	return nil
}

// Create implements backend.Backend.
func (s *Store) Create(payloadSize int) (backend.OID, error) {
	var oid backend.OID
	err := s.call(func(out *wire.Buf) {
		out.Start(wire.OpCreate)
		out.I64(int64(payloadSize))
	}, func(status uint8, r *wire.Reader) error {
		if status != wire.StatusOK {
			return wire.DecodeError(status, r.Str())
		}
		oid = backend.OID(r.U64())
		return nil
	})
	return oid, err
}

// oidOp runs the shared shape of Access/Update/Delete.
func (s *Store) oidOp(op uint8, oid backend.OID) error {
	return s.call(func(out *wire.Buf) {
		out.Start(op)
		out.U64(uint64(oid))
	}, decodeEmpty)
}

// Access implements backend.Backend.
func (s *Store) Access(oid backend.OID) error { return s.oidOp(wire.OpAccess, oid) }

// Update implements backend.Backend.
func (s *Store) Update(oid backend.OID) error { return s.oidOp(wire.OpUpdate, oid) }

// Delete implements backend.Backend.
func (s *Store) Delete(oid backend.OID) error { return s.oidOp(wire.OpDelete, oid) }

// AccessBatch implements backend.Backend: the whole batch travels in one
// request frame and comes back as one prefix count — a single round trip
// regardless of batch size.
func (s *Store) AccessBatch(oids []backend.OID) (int, error) {
	n := 0
	err := s.call(func(out *wire.Buf) {
		out.Start(wire.OpAccessBatch)
		out.OIDs(oids)
	}, func(status uint8, r *wire.Reader) error {
		n = int(r.U32())
		if status != wire.StatusOK {
			return wire.DecodeError(status, r.Str())
		}
		return nil
	})
	return n, err
}

// Exists implements backend.Backend. Transport failures read as absent:
// the signature has no error channel, matching in-process semantics where
// existence is a pure lookup.
func (s *Store) Exists(oid backend.OID) bool {
	exists := false
	err := s.call(func(out *wire.Buf) {
		out.Start(wire.OpExists)
		out.U64(uint64(oid))
	}, func(status uint8, r *wire.Reader) error {
		if status != wire.StatusOK {
			return wire.DecodeError(status, r.Str())
		}
		exists = r.U8() == 1
		return nil
	})
	return err == nil && exists
}

// SizeOf implements backend.Backend.
func (s *Store) SizeOf(oid backend.OID) (int, bool) {
	size, ok := 0, false
	err := s.call(func(out *wire.Buf) {
		out.Start(wire.OpSizeOf)
		out.U64(uint64(oid))
	}, func(status uint8, r *wire.Reader) error {
		if status != wire.StatusOK {
			return wire.DecodeError(status, r.Str())
		}
		size = int(r.I64())
		ok = r.U8() == 1
		return nil
	})
	if err != nil {
		return 0, false
	}
	return size, ok
}

// Commit implements backend.Backend.
func (s *Store) Commit() error {
	return s.call(func(out *wire.Buf) { out.Start(wire.OpCommit) }, decodeEmpty)
}

// DropCache implements backend.Backend.
func (s *Store) DropCache() {
	_ = s.call(func(out *wire.Buf) { out.Start(wire.OpDropCache) }, decodeEmpty)
}

// Stats implements backend.Backend.
func (s *Store) Stats() backend.Stats {
	var stats backend.Stats
	_ = s.call(func(out *wire.Buf) { out.Start(wire.OpStats) }, func(status uint8, r *wire.Reader) error {
		if status != wire.StatusOK {
			return wire.DecodeError(status, r.Str())
		}
		stats = r.Stats()
		return nil
	})
	return stats
}

// DiskStats implements backend.Backend without a call: the hosted store's
// counters as of the newest reply this client has received (the handshake
// guarantees there is one).
func (s *Store) DiskStats() disk.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last.Disk
}

// ResetStats implements backend.Backend.
func (s *Store) ResetStats() {
	_ = s.call(func(out *wire.Buf) { out.Start(wire.OpResetStats) }, decodeEmpty)
}

// SetIOClass implements backend.IOClassifier by forwarding the class;
// vacuous when the hosted store does not classify I/O.
func (s *Store) SetIOClass(c disk.IOClass) {
	_ = s.call(func(out *wire.Buf) {
		out.Start(wire.OpSetIOClass)
		out.U8(uint8(c))
	}, decodeEmpty)
}

// CheckIntegrity implements backend.Checker by running the hosted
// store's self-check server-side; vacuous when it has none.
func (s *Store) CheckIntegrity() error {
	return s.call(func(out *wire.Buf) { out.Start(wire.OpCheck) }, decodeEmpty)
}

// rangerStore is a Store whose server advertised CapRanger: it adds the
// forwarded backend.Ranger methods, so the capability is discoverable by
// type assertion iff the hosted store has it. Go method sets are static,
// which is why the capability needs a distinct wrapper type rather than a
// conditional method.
type rangerStore struct {
	*Store
}

var _ backend.Ranger = rangerStore{}

// decodeOIDs appends a length-prefixed OID list into dst.
func decodeOIDs(r *wire.Reader, dst []backend.OID) []backend.OID {
	n := int(r.U32())
	for i := 0; i < n; i++ {
		dst = append(dst, backend.OID(r.U64()))
	}
	return dst
}

// Scan implements backend.Ranger: the whole range travels back in one
// response frame — a single round trip, but also a MaxFrame bound, so
// remote callers should pass a limit on ranges that could span millions
// of OIDs.
func (s rangerStore) Scan(lo, hi backend.OID, limit int, desc bool, dst []backend.OID) ([]backend.OID, error) {
	err := s.call(func(out *wire.Buf) {
		out.Start(wire.OpScan)
		out.U64(uint64(lo))
		out.U64(uint64(hi))
		out.I64(int64(limit))
		if desc {
			out.U8(1)
		} else {
			out.U8(0)
		}
	}, func(status uint8, r *wire.Reader) error {
		if status != wire.StatusOK {
			return wire.DecodeError(status, r.Str())
		}
		dst = decodeOIDs(r, dst)
		return nil
	})
	return dst, err
}

// Seek implements backend.Ranger. Transport failures read as "no such
// position": the signature has no error channel, matching the in-process
// semantics where a seek is a pure lookup.
func (s rangerStore) Seek(oid backend.OID, desc bool) (backend.OID, bool) {
	found, ok := backend.NilOID, false
	err := s.call(func(out *wire.Buf) {
		out.Start(wire.OpSeek)
		out.U64(uint64(oid))
		if desc {
			out.U8(1)
		} else {
			out.U8(0)
		}
	}, func(status uint8, r *wire.Reader) error {
		if status != wire.StatusOK {
			return wire.DecodeError(status, r.Str())
		}
		found = backend.OID(r.U64())
		ok = r.U8() == 1
		return nil
	})
	if err != nil {
		return backend.NilOID, false
	}
	return found, ok
}

// SetKey implements backend.Ranger.
func (s rangerStore) SetKey(oid backend.OID, key int64) error {
	return s.call(func(out *wire.Buf) {
		out.Start(wire.OpSetKey)
		out.U64(uint64(oid))
		out.I64(key)
	}, decodeEmpty)
}

// ScanKey implements backend.Ranger: one round trip, same MaxFrame
// consideration as Scan.
func (s rangerStore) ScanKey(lo, hi int64, limit int, dst []backend.OID) ([]backend.OID, error) {
	err := s.call(func(out *wire.Buf) {
		out.Start(wire.OpScanKey)
		out.I64(lo)
		out.I64(hi)
		out.I64(int64(limit))
	}, func(status uint8, r *wire.Reader) error {
		if status != wire.StatusOK {
			return wire.DecodeError(status, r.Str())
		}
		dst = decodeOIDs(r, dst)
		return nil
	})
	return dst, err
}

// Hosted returns the server-reported driver name behind this client.
func (s *Store) Hosted() string { return s.hosted }

// Close implements backend.Durable on the client side: release every
// pooled connection. Idempotent — a second Close (backend.Shutdown via a
// command defer after an explicit Close, say) is a no-op. The server and
// its store keep running.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	for {
		select {
		case c := <-s.pool:
			c.nc.Close()
		default:
			return nil
		}
	}
}

// Reopen implements backend.Durable: dial the same server again. The
// hosted store kept running, so the new client sees all committed state —
// the conformance durability contract, with the durability itself
// delegated to whatever the server hosts.
func (s *Store) Reopen() (backend.Backend, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		return nil, fmt.Errorf("backend %q: Reopen before Close", Name)
	}
	return open(backend.Config{Options: map[string]string{
		"addr":  s.addr,
		"conns": strconv.Itoa(cap(s.pool)),
	}})
}
