package wire

import (
	"bufio"
	"net"
	"testing"
	"time"

	"ocb/internal/backend"
	_ "ocb/internal/backend/paged"
)

// TestEveryReplyCarriesTheTrailer drives a served paged store over a raw
// connection through the Hello reply, a success, an error status and a
// version refusal. Every reply ends in a trailer whose sequence number is
// one above the last, starts above the server's start time in ns, and
// carries the hosted counters as of that reply.
func TestEveryReplyCarriesTheTrailer(t *testing.T) {
	hosted, err := backend.Open("paged", backend.Config{BufferPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Shutdown(hosted) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := uint64(time.Now().UnixNano())
	srv := NewServer(hosted, "paged", nil)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Shutdown)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	var (
		out  Buf
		rbuf []byte
		last uint64
	)
	for i, tc := range []struct {
		name   string
		stage  func()
		status uint8
	}{
		{"hello", func() { out.Start(OpHello); out.U32(Version) }, StatusOK},
		{"create", func() { out.Start(OpCreate); out.I64(5000) }, StatusOK},
		{"create", func() { out.Start(OpCreate); out.I64(5000) }, StatusOK},
		{"access of a missing object", func() { out.Start(OpAccess); out.U64(1 << 40) }, StatusNoSuchObject},
		{"commit", func() { out.Start(OpCommit) }, StatusOK},
		{"hello at the wrong version", func() { out.Start(OpHello); out.U32(Version + 1) }, StatusError},
	} {
		tc.stage()
		if err := out.Send(conn); err != nil {
			t.Fatal(err)
		}
		var status uint8
		var payload []byte
		status, payload, rbuf, err = ReadFrame(br, rbuf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if status != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, status, tc.status)
		}
		_, tr, err := SplitTrailer(payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		switch {
		case i == 0 && tr.Seq <= started:
			t.Fatalf("first sequence number %d is not above the server's start time %d", tr.Seq, started)
		case i > 0 && tr.Seq != last+1:
			t.Fatalf("%s: sequence number %d after %d", tc.name, tr.Seq, last)
		}
		last = tr.Seq
		if want := hosted.DiskStats(); tr.Disk != want {
			t.Fatalf("%s: trailer counters %+v, hosted store %+v", tc.name, tr.Disk, want)
		}
	}
	if st := hosted.DiskStats(); st.TotalWrites() == 0 {
		t.Fatalf("hosted counters %+v: the requests made no I/O, so the trailers compared zeros", st)
	}
}
