package workload

import (
	"ocb/internal/backend"
	"ocb/internal/cluster"
)

// SeenSet is a resettable membership set over OIDs. Membership is a
// generation stamp per slot, so reset is a single counter bump — the
// allocation-free replacement for the map[OID]bool a traversal would
// otherwise build per operation. It is the scratch the core executor's
// fast path introduced, hoisted here so every suite's ops share it
// through the Ctx.
type SeenSet struct {
	gen   uint32
	stamp []uint32
}

// Reset empties the set and ensures capacity for OIDs below n.
func (s *SeenSet) Reset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.gen = 0
	}
	s.gen++
	if s.gen == 0 { // generation counter wrapped: start a fresh epoch
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
}

// Add inserts oid, reporting whether it was newly added.
func (s *SeenSet) Add(oid backend.OID) bool {
	if s.stamp[oid] == s.gen {
		return false
	}
	s.stamp[oid] = s.gen
	return true
}

// Has reports membership without inserting.
func (s *SeenSet) Has(oid backend.OID) bool {
	return int(oid) < len(s.stamp) && s.stamp[oid] == s.gen
}

// streamBatch bounds how many faults one AccessBatch call of an
// AccessStream carries, so a call neither pins the store's locks for a
// whole operation nor grows a request frame with the database.
const streamBatch = 512

// unobserved in the parent slot of a queued fault keeps Flush from
// reporting it to the policy. No object has this OID: identifiers are
// dense from 1.
const unobserved = ^backend.OID(0)

// AccessStream is a client's one way to fault objects: Visit queues a
// fault and Flush ships the queue through Store.AccessBatch in visit
// order, at streamBatch entries and whenever the op asks, so an operation
// waits for the store once per streamBatch objects, not once per object.
// It is exact because no suite's visit order depends on a store reply,
// AccessBatch charges what the same Access calls would, and policy
// observers only count: replaying the completed prefix after each batch
// leaves the policy where per-object calls would have. Callers follow the
// flush rules in docs.go. A stream belongs to one client: suites build one
// per client in Spec.NewClient, and core.Executor holds its own.
type AccessStream struct {
	// Store is the backend the faults go to.
	Store backend.Backend
	// Policy, when set, is told of every completed fault in visit order:
	// ObserveRoot for a root, ObserveLink for an object reached through a
	// link. Nil means no observation.
	Policy cluster.Policy

	// oids are the faults queued since the last flush, in visit order;
	// from[i] is the object oids[i] was reached from (NilOID for a root,
	// unobserved for a fault the policy is not told about). Both hold at
	// most streamBatch entries and keep their capacity.
	oids, from []backend.OID
	// done counts the objects the flushes completed since the last End.
	done int
}

// Visit queues the fault of object to, reached from object from (NilOID
// for a root), flushing the queue when it holds streamBatch entries.
//
//ocblint:allocfree -- steady-state hot path
func (s *AccessStream) Visit(from, to backend.OID) error {
	s.oids = append(s.oids, to)
	s.from = append(s.from, from)
	if len(s.oids) < streamBatch {
		return nil
	}
	return s.Flush()
}

// VisitUnobserved queues a fault the policy is not told about (a scan or
// a range window, which report their root themselves).
//
//ocblint:allocfree -- steady-state hot path
func (s *AccessStream) VisitUnobserved(to backend.OID) error {
	return s.Visit(unobserved, to)
}

// Flush faults the queued objects through one Store.AccessBatch call,
// replays the policy observations of the prefix that completed, counts
// that prefix and empties the queue. On error the rest of the queue is
// dropped: the op is over. An empty queue makes no call.
//
//ocblint:allocfree -- steady-state hot path
func (s *AccessStream) Flush() error {
	if len(s.oids) == 0 {
		return nil
	}
	n, err := s.Store.AccessBatch(s.oids)
	if s.Policy != nil {
		for i, to := range s.oids[:n] {
			switch from := s.from[i]; from {
			case unobserved:
			case backend.NilOID:
				s.Policy.ObserveRoot(to)
			default:
				s.Policy.ObserveLink(from, to)
			}
		}
	}
	s.done += n
	s.oids, s.from = s.oids[:0], s.from[:0]
	return err
}

// End closes an op's use of the stream: with err nil it flushes the
// queue, otherwise it drops it. It returns the objects completed since
// the previous End — the op's faulted-object count — and the first error.
// The stream is empty afterwards either way.
//
//ocblint:allocfree -- steady-state hot path
func (s *AccessStream) End(err error) (int, error) {
	if err == nil {
		err = s.Flush()
	}
	s.oids, s.from = s.oids[:0], s.from[:0]
	n := s.done
	s.done = 0
	return n, err
}
