package wire

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"ocb/internal/backend"
	"ocb/internal/disk"
)

// Server hosts one backend instance over the wire protocol. Each accepted
// connection gets its own goroutine; requests on a connection are handled
// strictly in order. The hosted backend must be safe for concurrent use
// (the Backend contract), so connections need no coordination beyond it.
//
// A protocol violation — garbage length prefix, truncated frame, unknown
// op code — costs exactly the offending connection: the handler logs and
// drops it, and every other client keeps running.
type Server struct {
	b      backend.Backend
	hosted string
	logger *log.Logger

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	draining  bool
	seq       uint64 // the last reply's trailer sequence number
	wg        sync.WaitGroup
}

// NewServer wraps a backend for serving. hosted is the driver name the
// Hello handshake reports (diagnostics only). logger may be nil for
// silence.
func NewServer(b backend.Backend, hosted string, logger *log.Logger) *Server {
	return &Server{
		b:         b,
		hosted:    hosted,
		logger:    logger,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		// A restarted server's sequence continues above its predecessor's.
		seq: uint64(time.Now().UnixNano()),
	}
}

// logf logs when a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// Serve accepts connections on l until Shutdown closes it, then returns
// nil (any other accept failure is returned as the error).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("wire: server already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown drains the server: stop accepting, let every in-flight
// request finish and its response flush, then close all connections and
// return. A client mid-request gets its answer; the next request on any
// connection fails. Safe to call more than once.
func (s *Server) Shutdown() {
	// Snapshot under the lock, close outside it: Close and
	// SetReadDeadline are network operations that may block, and the
	// accept loop needs s.mu to make progress. Any connection accepted
	// after draining is set is closed by the accept loop itself.
	s.mu.Lock()
	s.draining = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		listeners = append(listeners, l)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	// Unblock handlers parked in ReadFrame; a handler busy serving a
	// request notices the drain flag after writing its response.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
}

// handle runs one connection's request loop until the client hangs up, a
// protocol violation occurs, or the server drains.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	// One read syscall fetches a request's length prefix and payload
	// together. The buffer is small on purpose: requests are tens of
	// bytes, a batch larger than it is read straight into rbuf, and every
	// connection carries one.
	br := bufio.NewReaderSize(conn, 4<<10)
	var (
		rbuf  []byte // frame read buffer, reused
		out   Buf    // response frame, reused
		oids  []backend.OID
		opTag uint8
	)
	for {
		tag, payload, grown, err := ReadFrame(br, rbuf)
		rbuf = grown
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				s.logf("wire: %s: dropping connection: %v", conn.RemoteAddr(), err)
			}
			return
		}
		opTag = tag
		r := NewReader(payload)
		ok := s.serveOp(opTag, &r, &out, &oids)
		if !ok || r.Err() != nil {
			s.logf("wire: %s: malformed request (op %d), dropping connection", conn.RemoteAddr(), opTag)
			return
		}
		// The sequence number and the counters are taken together, so
		// sequence order is the order the counters were read in.
		s.mu.Lock()
		s.seq++
		trailer := Trailer{Seq: s.seq, Disk: s.b.DiskStats()}
		draining := s.draining
		s.mu.Unlock()
		out.Trailer(trailer)
		if err := out.Send(conn); err != nil {
			s.logf("wire: %s: write: %v", conn.RemoteAddr(), err)
			return
		}
		if draining {
			return
		}
	}
}

// isTimeout reports a deadline-induced read error (the drain nudge).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serveOp decodes one request, runs it against the hosted backend and
// encodes the response into out. It returns false for an unknown op code
// (the caller drops the connection); payload truncation is reported
// through the reader's sticky error.
func (s *Server) serveOp(op uint8, r *Reader, out *Buf, oids *[]backend.OID) bool {
	switch op {
	case OpHello:
		v := r.U32()
		if r.Err() != nil {
			return false
		}
		if v != Version {
			out.Start(StatusError)
			out.Str("wire: protocol version mismatch")
			return true
		}
		var caps uint32
		if _, ok := s.b.(backend.IOClassifier); ok {
			caps |= CapIOClassifier
		}
		if _, ok := s.b.(backend.Checker); ok {
			caps |= CapChecker
		}
		if _, ok := s.b.(backend.Ranger); ok {
			caps |= CapRanger
		}
		out.Start(StatusOK)
		out.U32(Version)
		out.U32(caps)
		out.Str(s.hosted)
	case OpCreate:
		size := r.I64()
		if r.Err() != nil {
			return false
		}
		oid, err := s.b.Create(int(size))
		if err != nil {
			s.fail(out, err)
			return true
		}
		out.Start(StatusOK)
		out.U64(uint64(oid))
	case OpAccess:
		s.oidOp(r, out, s.b.Access)
	case OpUpdate:
		s.oidOp(r, out, s.b.Update)
	case OpDelete:
		s.oidOp(r, out, s.b.Delete)
	case OpAccessBatch:
		*oids = r.OIDs(*oids)
		if r.Err() != nil {
			return false
		}
		n, err := s.b.AccessBatch(*oids)
		if err != nil {
			// The batch response carries the completed prefix either way.
			out.Start(statusOf(err))
			out.U32(uint32(n))
			out.Str(err.Error())
			return true
		}
		out.Start(StatusOK)
		out.U32(uint32(n))
	case OpExists:
		oid := backend.OID(r.U64())
		if r.Err() != nil {
			return false
		}
		out.Start(StatusOK)
		if s.b.Exists(oid) {
			out.U8(1)
		} else {
			out.U8(0)
		}
	case OpSizeOf:
		oid := backend.OID(r.U64())
		if r.Err() != nil {
			return false
		}
		size, ok := s.b.SizeOf(oid)
		out.Start(StatusOK)
		out.I64(int64(size))
		if ok {
			out.U8(1)
		} else {
			out.U8(0)
		}
	case OpCommit:
		if err := s.b.Commit(); err != nil {
			s.fail(out, err)
			return true
		}
		out.Start(StatusOK)
	case OpDropCache:
		s.b.DropCache()
		out.Start(StatusOK)
	case OpStats:
		out.Start(StatusOK)
		out.Stats(s.b.Stats())
	case OpResetStats:
		s.b.ResetStats()
		out.Start(StatusOK)
	case OpSetIOClass:
		class := r.U8()
		if r.Err() != nil {
			return false
		}
		backend.SetIOClass(s.b, disk.IOClass(class))
		out.Start(StatusOK)
	case OpCheck:
		if err := backend.CheckIntegrity(s.b); err != nil {
			s.fail(out, err)
			return true
		}
		out.Start(StatusOK)
	case OpScan:
		lo := backend.OID(r.U64())
		hi := backend.OID(r.U64())
		limit := r.I64()
		desc := r.U8()
		if r.Err() != nil {
			return false
		}
		rg, ok := s.b.(backend.Ranger)
		if !ok {
			s.fail(out, backend.ErrNoRanger)
			return true
		}
		res, err := rg.Scan(lo, hi, int(limit), desc != 0, (*oids)[:0])
		*oids = res[:0]
		if err != nil {
			s.fail(out, err)
			return true
		}
		out.Start(StatusOK)
		out.OIDs(res)
	case OpSeek:
		oid := backend.OID(r.U64())
		desc := r.U8()
		if r.Err() != nil {
			return false
		}
		rg, ok := s.b.(backend.Ranger)
		if !ok {
			s.fail(out, backend.ErrNoRanger)
			return true
		}
		found, live := rg.Seek(oid, desc != 0)
		out.Start(StatusOK)
		out.U64(uint64(found))
		if live {
			out.U8(1)
		} else {
			out.U8(0)
		}
	case OpSetKey:
		oid := backend.OID(r.U64())
		key := r.I64()
		if r.Err() != nil {
			return false
		}
		rg, ok := s.b.(backend.Ranger)
		if !ok {
			s.fail(out, backend.ErrNoRanger)
			return true
		}
		if err := rg.SetKey(oid, key); err != nil {
			s.fail(out, err)
			return true
		}
		out.Start(StatusOK)
	case OpScanKey:
		lo := r.I64()
		hi := r.I64()
		limit := r.I64()
		if r.Err() != nil {
			return false
		}
		rg, ok := s.b.(backend.Ranger)
		if !ok {
			s.fail(out, backend.ErrNoRanger)
			return true
		}
		res, err := rg.ScanKey(lo, hi, int(limit), (*oids)[:0])
		*oids = res[:0]
		if err != nil {
			s.fail(out, err)
			return true
		}
		out.Start(StatusOK)
		out.OIDs(res)
	default:
		return false
	}
	return true
}

// oidOp handles the shared shape of Access/Update/Delete.
func (s *Server) oidOp(r *Reader, out *Buf, op func(backend.OID) error) {
	oid := backend.OID(r.U64())
	if r.Err() != nil {
		return
	}
	if err := op(oid); err != nil {
		s.fail(out, err)
		return
	}
	out.Start(StatusOK)
}

// fail encodes an error response: the sentinel as a status code, the
// message text alongside.
func (s *Server) fail(out *Buf, err error) {
	out.Start(statusOf(err))
	out.Str(err.Error())
}
