// Package wire is the client/server protocol that puts any registered
// backend on the network: a length-prefixed binary framing over TCP with
// one op code per Backend method (DiskStats aside: see Trailer below), so
// the natural RPC boundary the interface already defines becomes an
// actual wire boundary.
//
// Framing. Every message — request or response — is one frame:
//
//	[uint32 length][uint8 tag][payload ...]
//
// All integers are little-endian and fixed-width. The length counts the
// tag byte plus the payload, so a frame is never empty and never larger
// than MaxFrame (a request that claims more is a protocol violation and
// costs the sender its connection). On a request the tag is the op code;
// on a response it is the status code. Requests on one connection are
// strictly sequential — the client sends a frame and reads exactly one
// response — which keeps both sides free of per-message allocation and
// reordering machinery; concurrency comes from pooling connections, one
// in flight per connection.
//
// Trailer. Every response payload — success, error status or the Hello
// reply — ends in a fixed TrailerSize-byte trailer: the server's reply
// sequence number, then the hosted store's disk counters (reads and writes
// per I/O class) read right after the request was served. The server
// draws the number and reads the counters under one lock, so a higher
// sequence number never carries older counters, and it starts the count
// at its start time in nanoseconds, so a server restarted on the same
// address continues above its predecessor. A client keeps the trailer with
// the highest sequence number and answers DiskStats from it without a
// round trip; the engine samples DiskStats around every operation, so the
// counters ride on replies that are sent anyway. Protocol version 2
// introduced the trailer and retired the DiskStats request.
//
// Batching. AccessBatch ships all its OIDs in a single request frame and
// returns the prefix count in a single response, so a batch of any size
// stays one network round trip — the same economy the in-process method
// has over repeated Access calls.
//
// Errors. The backend package's sentinel errors are encoded as status
// codes, not strings, so they round-trip exactly: a remote caller's
// errors.Is(err, backend.ErrNoSuchObject) works just like an in-process
// caller's. The server-side message text travels alongside and is
// preserved for diagnostics.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ocb/internal/backend"
	"ocb/internal/buffer"
	"ocb/internal/disk"
)

// Version is the protocol revision, exchanged in the Hello handshake.
// Both sides must agree exactly; there is no cross-version negotiation.
// Version 2 ends every response in a Trailer and has no DiskStats op.
const Version = 2

// MaxFrame bounds a frame's length field (tag + payload). It is sized
// for the largest legitimate message — an AccessBatch over millions of
// OIDs — while keeping a garbage length prefix from allocating the moon.
const MaxFrame = 16 << 20

// Op codes, one per Backend method but DiskStats (every reply's trailer
// carries it) plus the handshake and the forwarded capabilities (I/O
// classification, the integrity self-check and the ordered index).
const (
	OpHello uint8 = 1 + iota
	OpCreate
	OpAccess
	OpAccessBatch
	OpUpdate
	OpDelete
	OpExists
	OpSizeOf
	OpCommit
	OpDropCache
	OpStats
	OpResetStats
	OpSetIOClass
	OpCheck
	OpScan
	OpSeek
	OpSetKey
	OpScanKey
	opMax
)

// Status codes. StatusOK heads every successful response; the error
// statuses map one-to-one onto the backend package's sentinel errors so
// they survive the wire, and StatusError carries anything else.
const (
	StatusOK uint8 = iota
	StatusNoSuchObject
	StatusObjectTooLarge
	StatusBadSize
	StatusNotSupported
	StatusNoRanger
	StatusError
)

// Capability bits reported by Hello: the optional backend interfaces the
// server's hosted store implements and the protocol forwards.
const (
	CapIOClassifier uint32 = 1 << iota
	CapChecker
	CapRanger
)

// statusOf maps a server-side error to its wire status.
func statusOf(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, backend.ErrNoSuchObject):
		return StatusNoSuchObject
	case errors.Is(err, backend.ErrObjectTooLarge):
		return StatusObjectTooLarge
	case errors.Is(err, backend.ErrBadSize):
		return StatusBadSize
	case errors.Is(err, backend.ErrNoRanger):
		// Before ErrNotSupported: ErrNoRanger wraps it, and the more
		// specific status must win so it round-trips exactly.
		return StatusNoRanger
	case errors.Is(err, backend.ErrNotSupported):
		return StatusNotSupported
	default:
		return StatusError
	}
}

// sentinelOf maps an error status back to the backend sentinel it
// encodes, or nil for StatusError.
func sentinelOf(status uint8) error {
	switch status {
	case StatusNoSuchObject:
		return backend.ErrNoSuchObject
	case StatusObjectTooLarge:
		return backend.ErrObjectTooLarge
	case StatusBadSize:
		return backend.ErrBadSize
	case StatusNotSupported:
		return backend.ErrNotSupported
	case StatusNoRanger:
		return backend.ErrNoRanger
	default:
		return nil
	}
}

// Error is a server-side error reconstructed on the client: the original
// message text with the sentinel re-attached, so errors.Is crosses the
// wire exactly as it crosses the in-process driver boundary.
type Error struct {
	Sentinel error  // the backend package sentinel, nil for plain errors
	Msg      string // the server-side Error() text
}

// Error implements error.
func (e *Error) Error() string { return e.Msg }

// Unwrap exposes the sentinel to errors.Is.
func (e *Error) Unwrap() error { return e.Sentinel }

// DecodeError reconstructs the client-side error for a non-OK status and
// its message payload.
func DecodeError(status uint8, msg string) error {
	if msg == "" {
		msg = "remote backend error"
	}
	return &Error{Sentinel: sentinelOf(status), Msg: msg}
}

// Buf builds one frame: Start, append the payload field by field, then
// Send patches the length prefix and writes the frame in one call.
// The backing array is reused across frames, so a warmed-up connection
// encodes without allocating.
type Buf struct {
	b []byte
}

// Start resets the buffer to an empty frame with the given tag.
func (f *Buf) Start(tag uint8) {
	f.b = append(f.b[:0], 0, 0, 0, 0, tag)
}

// U8 appends one byte.
func (f *Buf) U8(v uint8) { f.b = append(f.b, v) }

// U32 appends a little-endian uint32.
func (f *Buf) U32(v uint32) { f.b = binary.LittleEndian.AppendUint32(f.b, v) }

// U64 appends a little-endian uint64.
func (f *Buf) U64(v uint64) { f.b = binary.LittleEndian.AppendUint64(f.b, v) }

// I64 appends an int64 (two's complement in a uint64).
func (f *Buf) I64(v int64) { f.U64(uint64(v)) }

// Str appends a length-prefixed string (uint32 count + bytes).
func (f *Buf) Str(s string) {
	f.U32(uint32(len(s)))
	f.b = append(f.b, s...)
}

// OIDs appends a length-prefixed OID slice.
func (f *Buf) OIDs(oids []backend.OID) {
	f.U32(uint32(len(oids)))
	for _, oid := range oids {
		f.U64(uint64(oid))
	}
}

// Stats appends a backend.Stats snapshot (fixed-width counters only).
func (f *Buf) Stats(s backend.Stats) {
	f.DiskStats(s.Disk)
	f.U64(s.Pool.Hits)
	f.U64(s.Pool.Misses)
	f.U64(s.Pool.Evictions)
	f.U64(s.Pool.DirtyEvictions)
	f.U64(s.Pool.Flushes)
	f.U64(s.ObjectsAccessed)
	f.I64(int64(s.Objects))
	f.I64(int64(s.Pages))
}

// DiskStats appends a disk.Stats snapshot (reads and writes per I/O class).
func (f *Buf) DiskStats(s disk.Stats) {
	f.U64(s.Reads[disk.Transaction])
	f.U64(s.Reads[disk.Clustering])
	f.U64(s.Writes[disk.Transaction])
	f.U64(s.Writes[disk.Clustering])
}

// TrailerSize is the byte length of the Trailer that ends every response
// payload: the sequence number and four disk counters, 8 bytes each.
const TrailerSize = 40

// Trailer is what every response carries after its own payload: the
// server's sequence number for the reply and the hosted store's disk
// counters as of that reply.
type Trailer struct {
	Seq  uint64
	Disk disk.Stats
}

// Trailer appends t; the server calls it last, after the response payload.
func (f *Buf) Trailer(t Trailer) {
	f.U64(t.Seq)
	f.DiskStats(t.Disk)
}

// SplitTrailer splits a response payload into the response's own fields
// and its trailer. A payload shorter than TrailerSize comes from a broken
// or older peer and is an error.
func SplitTrailer(payload []byte) ([]byte, Trailer, error) {
	n := len(payload) - TrailerSize
	if n < 0 {
		return nil, Trailer{}, fmt.Errorf("wire: %d-byte reply is shorter than its %d-byte trailer", len(payload), TrailerSize)
	}
	r := NewReader(payload[n:])
	return payload[:n], Trailer{Seq: r.U64(), Disk: r.DiskStats()}, nil
}

// Send patches the length prefix and writes the whole frame in a
// single Write call.
func (f *Buf) Send(w io.Writer) error {
	if len(f.b) > MaxFrame+4 {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", len(f.b)-4)
	}
	binary.LittleEndian.PutUint32(f.b[:4], uint32(len(f.b)-4))
	_, err := w.Write(f.b)
	return err
}

// ErrFrameTooLarge reports a length prefix beyond MaxFrame — a protocol
// violation (or garbage on the port); the receiver drops the connection
// rather than trusting the prefix.
var ErrFrameTooLarge = errors.New("wire: frame length exceeds MaxFrame")

// ReadFrame reads one frame, reusing buf when it is large enough. It
// returns the tag, the payload (valid until the next read into buf), and
// the possibly-grown buffer. A length prefix of zero or beyond MaxFrame
// is a protocol violation returned as an error.
func ReadFrame(r io.Reader, buf []byte) (tag uint8, payload, grown []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, buf, errors.New("wire: empty frame")
	}
	if n > MaxFrame {
		return 0, nil, buf, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return buf[0], buf[1:], buf, nil
}

// Reader decodes a frame payload field by field. Short payloads flip a
// sticky error checked once at the end instead of at every field.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader wraps a payload.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err reports whether any read ran past the payload.
func (r *Reader) Err() error {
	if r.bad {
		return errors.New("wire: truncated payload")
	}
	return nil
}

// Rest returns how many bytes remain undecoded.
func (r *Reader) Rest() int { return len(r.b) - r.off }

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	if r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// I64 decodes an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Str decodes a length-prefixed string.
func (r *Reader) Str() string {
	n := r.U32()
	if r.bad || r.off+int(n) > len(r.b) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// OIDs decodes a length-prefixed OID slice into dst (reused when large
// enough).
func (r *Reader) OIDs(dst []backend.OID) []backend.OID {
	n := r.U32()
	if r.bad || r.Rest() < int(n)*8 {
		r.bad = true
		return dst[:0]
	}
	dst = dst[:0]
	for i := 0; i < int(n); i++ {
		dst = append(dst, backend.OID(r.U64()))
	}
	return dst
}

// Stats decodes a backend.Stats snapshot.
func (r *Reader) Stats() backend.Stats {
	var s backend.Stats
	s.Disk = r.DiskStats()
	s.Pool = buffer.Stats{
		Hits:           r.U64(),
		Misses:         r.U64(),
		Evictions:      r.U64(),
		DirtyEvictions: r.U64(),
		Flushes:        r.U64(),
	}
	s.ObjectsAccessed = r.U64()
	s.Objects = int(r.I64())
	s.Pages = int(r.I64())
	return s
}

// DiskStats decodes a disk.Stats snapshot.
func (r *Reader) DiskStats() disk.Stats {
	var s disk.Stats
	s.Reads[disk.Transaction] = r.U64()
	s.Reads[disk.Clustering] = r.U64()
	s.Writes[disk.Transaction] = r.U64()
	s.Writes[disk.Clustering] = r.U64()
	return s
}
