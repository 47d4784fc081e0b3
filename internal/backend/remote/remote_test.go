package remote_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ocb/internal/backend"
	"ocb/internal/backend/backendtest"
	_ "ocb/internal/backend/flatmem"
	_ "ocb/internal/backend/paged"
	"ocb/internal/backend/remote"
	"ocb/internal/wire"
)

// startServer hosts a fresh paged backend on a loopback listener and
// tears everything down with the test.
func startServer(t *testing.T) string {
	t.Helper()
	hosted, err := backend.Open("paged", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, hosted, "paged")
}

// serve hosts a backend, announced as driver name, on a loopback listener
// until the test ends, then drains the server and releases the backend.
func serve(t *testing.T, hosted backend.Backend, name string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(hosted, name, nil)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		_ = backend.Shutdown(hosted)
	})
	return ln.Addr().String()
}

// openRemote opens a remote backend against addr.
func openRemote(t *testing.T, addr string) backend.Backend {
	t.Helper()
	b, err := backend.Open(remote.Name, backend.Config{Options: map[string]string{"addr": addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Shutdown(b) })
	return b
}

// TestConformance runs the full shared driver suite — error sentinels,
// batch equivalence, counters, durability — against the remote driver
// over a loopback server, each subtest on a fresh server + store.
func TestConformance(t *testing.T) {
	backendtest.Conformance(t, func(t *testing.T) backend.Backend {
		return openRemote(t, startServer(t))
	})
}

// TestOpenValidation pins the option contract: addr is required, unknown
// keys are rejected with the valid set named, and a dead address fails at
// Open rather than mid-benchmark.
func TestOpenValidation(t *testing.T) {
	if _, err := backend.Open(remote.Name, backend.Config{}); err == nil {
		t.Fatal("Open without addr succeeded")
	}
	var unk *backend.UnknownOptionError
	_, err := backend.Open(remote.Name, backend.Config{Options: map[string]string{"adr": "x"}})
	if !errors.As(err, &unk) {
		t.Fatalf("unknown key: err = %v, want UnknownOptionError", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, err := backend.Open(remote.Name, backend.Config{Options: map[string]string{"addr": dead}}); err == nil {
		t.Fatal("Open against a dead address succeeded")
	}
	if _, err := backend.Open(remote.Name, backend.Config{Options: map[string]string{
		"addr": "127.0.0.1:1", "conns": "zero"}}); err == nil {
		t.Fatal("bad conns value accepted")
	}
}

// TestMalformedFramesDropOnlyTheOffender sends protocol garbage —
// truncated header, oversized length prefix, unknown op code, truncated
// payload — on raw connections while a well-behaved client keeps working:
// each offender loses its connection and nobody else notices.
func TestMalformedFramesDropOnlyTheOffender(t *testing.T) {
	addr := startServer(t)
	good := openRemote(t, addr)
	oid, err := good.Create(40)
	if err != nil {
		t.Fatal(err)
	}

	le := binary.LittleEndian
	cases := []struct {
		name  string
		frame []byte
	}{
		{"truncated header", []byte{5, 0}},
		{"oversized length prefix", le.AppendUint32(nil, 1<<30)},
		{"unknown op code", append(le.AppendUint32(nil, 1), 0xEE)},
		{"truncated payload", append(le.AppendUint32(nil, 3), wire.OpAccess, 1, 2)},
		{"zero length", le.AppendUint32(nil, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			// Close our write side so a "truncated" case is truly final,
			// then the server must hang up on us.
			if tcp, ok := conn.(*net.TCPConn); ok {
				_ = tcp.CloseWrite()
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadAll(conn); err != nil {
				t.Fatalf("server did not close the offending connection cleanly: %v", err)
			}
			// The well-behaved client is untouched.
			if err := good.Access(oid); err != nil {
				t.Fatalf("innocent client wedged: %v", err)
			}
		})
	}
}

// TestConcurrentClients exercises the pool: several goroutines hammer one
// remote store at once (create, access, batch, commit), then the counters
// must add up exactly — the server-side store is the single source of
// truth. Run with -race this doubles as the driver's race gate.
func TestConcurrentClients(t *testing.T) {
	addr := startServer(t)
	b := openRemote(t, addr)

	const clients = 4
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oids := make([]backend.OID, 0, perClient)
			for i := 0; i < perClient; i++ {
				oid, err := b.Create(64)
				if err != nil {
					errs <- err
					return
				}
				oids = append(oids, oid)
			}
			if k, err := b.AccessBatch(oids); err != nil || k != len(oids) {
				errs <- err
				return
			}
			for _, oid := range oids {
				if err := b.Access(oid); err != nil {
					errs <- err
					return
				}
			}
			if err := b.Commit(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.Objects != clients*perClient {
		t.Fatalf("Objects = %d, want %d", st.Objects, clients*perClient)
	}
	if st.ObjectsAccessed != clients*perClient*2 {
		t.Fatalf("ObjectsAccessed = %d, want %d", st.ObjectsAccessed, clients*perClient*2)
	}
	if err := backend.CheckIntegrity(b); err != nil {
		t.Fatalf("forwarded integrity check: %v", err)
	}
}

// TestCloseIdempotentAndErrClosed pins the client-side lifecycle: Close
// twice is a no-op, operations after Close fail cleanly, and Reopen gets
// a live client over the same (still running) server store.
func TestCloseIdempotentAndErrClosed(t *testing.T) {
	addr := startServer(t)
	b := openRemote(t, addr)
	oid, err := b.Create(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	d := b.(backend.Durable)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil (idempotent)", err)
	}
	if err := b.Access(oid); err == nil {
		t.Fatal("Access on a closed store succeeded")
	}
	if b.Exists(oid) {
		t.Fatal("Exists on a closed store reported true")
	}
	rb, err := d.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = backend.Shutdown(rb) }()
	if !rb.Exists(oid) {
		t.Fatal("server-side state lost across client Close/Reopen")
	}
}

// TestHostedName pins the handshake metadata: the client learns which
// driver the server hosts — and, since paged advertises CapRanger, the
// client comes back wrapped with the forwarded Ranger capability.
func TestHostedName(t *testing.T) {
	addr := startServer(t)
	b := openRemote(t, addr)
	rs, ok := b.(interface{ Hosted() string })
	if !ok {
		t.Fatalf("driver returned %T, which does not expose Hosted()", b)
	}
	if rs.Hosted() != "paged" {
		t.Fatalf("Hosted() = %q, want paged", rs.Hosted())
	}
	if _, err := backend.AsRanger(b); err != nil {
		t.Fatalf("remote over paged must forward Ranger: %v", err)
	}
}

// TestRangerForwardedIffHosted pins the capability gating: a server over
// a backend without an ordered index must yield a client without the
// Ranger capability — the type assertion fails and AsRanger reports
// ErrNoRanger, exactly like an in-process non-Ranger backend.
func TestRangerForwardedIffHosted(t *testing.T) {
	hosted, err := backend.Open("flatmem", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(hosted, "flatmem", nil)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		_ = backend.Shutdown(hosted)
	})
	b := openRemote(t, ln.Addr().String())
	if _, ok := b.(backend.Ranger); ok {
		t.Fatal("remote over flatmem claims Ranger")
	}
	if _, err := backend.AsRanger(b); !errors.Is(err, backend.ErrNoRanger) {
		t.Fatalf("AsRanger = %v, want ErrNoRanger", err)
	}
}

// TestGracefulDrain pins the shutdown contract: a request in flight when
// Shutdown lands still gets its response; the next request fails.
func TestGracefulDrain(t *testing.T) {
	hosted, err := backend.Open("paged", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = backend.Shutdown(hosted) }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(hosted, "paged", nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	b := openRemote(t, ln.Addr().String())
	if _, err := b.Create(10); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Shutdown, want nil", err)
	}
	if err := b.Commit(); err == nil {
		t.Fatal("request succeeded after server drain")
	}
	// Shutdown is idempotent too.
	srv.Shutdown()
}
