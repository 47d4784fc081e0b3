// Package ordindex is the one ordered-index implementation in the tree:
// a B+tree over the live OIDs plus a second one over the (key, OID) pairs
// SetKey binds, which together answer the whole backend.Ranger contract.
// The btree driver is this index behind a Backend shell; the paged store
// embeds the same index beside its hash directory.
//
// Structure. Leaves are chained both ways for ascending and descending
// scans. Inserts split preemptively on the way down, and a full leaf
// splits at the insertion point, not the midpoint: an ascending run of
// inserts — sequential OIDs at the right edge, or the per-key runs SetKey
// produces when objects are keyed in creation order — leaves full leaves
// behind it (random inserts pay for that: about 50% fill, not 69%).
// Deletes remove the leaf entry but never rebalance or merge nodes:
// benchmark workloads delete a small fraction of objects, and scans step
// over empty leaves for free (a delete-heavy workload would fragment the
// leaf chain: a known tradeoff, not an oversight).
//
// Memory. An entry is a 16-byte (attribute key, OID) pair in both trees:
// the attribute tree orders by the pair, the OID tree by the OID alone,
// carrying the object's current key in the other half so SetKey can
// replace a binding and Delete can drop it without a side table. Values
// (the btree driver's stored sizes) add 8 bytes per leaf entry, and every
// node a 96-byte header per fanout entries.
//
// Concurrency. The package holds no lock: the owner serializes writers
// (Insert, Delete, SetKey) against everything and may run readers (Get,
// Seek, Scan, ScanKey) concurrently. Nodes mutate in place, so reads
// allocate nothing.
package ordindex

import (
	"fmt"

	"ocb/internal/backend"
)

// MinFanout keeps degenerate geometries (tiny test page sizes) from
// collapsing a tree into a linked list of single-entry nodes.
const MinFanout = 4

// key is the (attribute, OID) pair both trees store. The attribute tree
// orders by the pair, which is exactly the ScanKey contract; the OID tree
// orders by oid alone and attr is payload: the key the object is bound to
// (0 until SetKey; whether it is bound is the attribute tree's to say).
type key struct {
	attr int64
	oid  backend.OID
}

// node is one B+tree node, leaf or internal. A leaf holds n entries and
// sits in the doubly-linked leaf chain; an internal node holds n
// separator keys and n+1 children, where keys[i] is the smallest key
// reachable under kids[i+1]. Nodes always travel by pointer — a node
// copied by value would detach half the leaf chain.
type node struct {
	n    int
	keys []key
	vals []uint64 // leaves of a tree with values only
	kids []*node  // internal only: n+1 children
	next *node    // leaf chain, ascending
	prev *node    // leaf chain, descending
}

// put stores entry i of a leaf.
func (nd *node) put(i int, k key, v uint64) {
	nd.keys[i] = k
	if nd.vals != nil {
		nd.vals[i] = v
	}
}

// move copies src's entries [from, to) to nd at at; src may be nd itself.
func (nd *node) move(at int, src *node, from, to int) {
	copy(nd.keys[at:], src.keys[from:to])
	if nd.vals != nil {
		copy(nd.vals[at:], src.vals[from:to])
	}
}

// tree is one B+tree; the OID tree and the attribute tree are two of these.
type tree struct {
	root   *node
	first  *node // leftmost leaf, head of the ascending chain
	last   *node // rightmost leaf, append fast-path target
	fanout int
	byAttr bool // order by (attr, oid), not by oid alone
	valued bool // leaves carry a value per entry
	nodes  int  // total allocated nodes
	size   int  // live entries
}

func (t *tree) init(fanout int, byAttr, valued bool) {
	t.fanout, t.byAttr, t.valued = fanout, byAttr, valued
	t.root = t.newNode(true)
	t.first, t.last = t.root, t.root
}

func (t *tree) newNode(leaf bool) *node {
	t.nodes++
	nd := &node{keys: make([]key, t.fanout)}
	if !leaf {
		nd.kids = make([]*node, t.fanout+1)
	} else if t.valued {
		nd.vals = make([]uint64, t.fanout)
	}
	return nd
}

// cmp orders a against b in this tree's order: negative, zero or positive.
//
//ocblint:allocfree
func (t *tree) cmp(a, b key) int {
	if t.byAttr && a.attr != b.attr {
		if a.attr < b.attr {
			return -1
		}
		return 1
	}
	if a.oid < b.oid {
		return -1
	}
	if a.oid > b.oid {
		return 1
	}
	return 0
}

// The two bounds a search can ask for.
const (
	ge = 0
	gt = 1
)

// search returns the first index in nd whose key is >= k (bound ge) or
// > k (bound gt); in an internal node the latter is the child to descend
// for k, as a key equal to separator i lives under kids[i+1]. A manual
// binary search: sort.Search takes a closure, which allocfree forbids.
//
//ocblint:allocfree
func (t *tree) search(nd *node, k key, bound int) int {
	lo, hi := 0, nd.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.cmp(nd.keys[mid], k) < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findLeaf descends to the leaf whose key range covers k.
//
//ocblint:allocfree
func (t *tree) findLeaf(k key) *node {
	nd := t.root
	for nd.kids != nil {
		nd = nd.kids[t.search(nd, k, gt)]
	}
	return nd
}

// find returns the leaf position of the entry equal to k in this tree's
// order; the node is nil when there is none.
//
//ocblint:allocfree
func (t *tree) find(k key) (*node, int) {
	nd := t.findLeaf(k)
	i := t.search(nd, k, ge)
	if i >= nd.n || t.cmp(nd.keys[i], k) != 0 {
		return nil, 0
	}
	return nd, i
}

// splitChild splits parent.kids[i], which must be full, on the way down
// to inserting k (parent must not be full). A leaf splits where k would
// land, so the ascending run k belongs to keeps filling the left half; at
// the leaf's right edge that keeps all but one entry on the left, which
// packs sequential appends to near-100% fill. An internal node splits at
// the midpoint unless it is its parent's last child.
func (t *tree) splitChild(parent *node, i int, k key) {
	child := parent.kids[i]
	right := t.newNode(child.kids == nil)
	var mid int
	if child.kids == nil {
		mid = min(max(t.search(child, k, ge), 1), child.n-1)
		right.n = child.n - mid
		right.move(0, child, mid, child.n)
		right.next = child.next
		right.prev = child
		if right.next != nil {
			right.next.prev = right
		} else {
			t.last = right
		}
		child.next = right
	} else {
		mid = child.n / 2
		if i == parent.n {
			mid = child.n - 1
		}
		right.n = child.n - mid - 1
		right.move(0, child, mid+1, child.n)
		copy(right.kids, child.kids[mid+1:child.n+1])
	}
	// Key mid is the separator: promoted out of an internal node, copied
	// from a leaf, where it is now right's first key.
	parent.move(i+1, parent, i, parent.n)
	parent.keys[i] = child.keys[mid]
	child.n = mid
	copy(parent.kids[i+2:], parent.kids[i+1:parent.n+1])
	parent.kids[i+1] = right
	parent.n++
}

// insert adds (k, v) unless an entry equal to k is already present, and
// reports whether it did.
func (t *tree) insert(k key, v uint64) bool {
	// Append fast path: sequential Create always lands past the end of
	// the rightmost leaf, no descent or separator updates needed.
	last := t.last
	if last.n > 0 && last.n < t.fanout && t.cmp(last.keys[last.n-1], k) < 0 {
		last.put(last.n, k, v)
		last.n++
		t.size++
		return true
	}
	if t.root.n == t.fanout {
		r := t.newNode(false)
		r.kids[0] = t.root
		t.root = r
		t.splitChild(r, 0, k)
	}
	nd := t.root
	for nd.kids != nil {
		i := t.search(nd, k, gt)
		if nd.kids[i].n == t.fanout {
			t.splitChild(nd, i, k)
			if t.cmp(nd.keys[i], k) <= 0 {
				i++
			}
		}
		nd = nd.kids[i]
	}
	i := t.search(nd, k, ge)
	if i < nd.n && t.cmp(nd.keys[i], k) == 0 {
		return false
	}
	nd.move(i+1, nd, i, nd.n)
	nd.put(i, k, v)
	nd.n++
	t.size++
	return true
}

// delete removes the entry equal to k if present. Nodes are never merged:
// an emptied leaf stays in the chain and scans step over it.
func (t *tree) delete(k key) {
	if nd, i := t.find(k); nd != nil {
		t.deleteAt(nd, i)
	}
}

// deleteAt removes entry i of leaf nd.
func (t *tree) deleteAt(nd *node, i int) {
	nd.move(i, nd, i+1, nd.n)
	nd.n--
	t.size--
}

// step moves one entry along the leaf chain from position i of nd (which
// may sit one off either end), backward when desc, skipping empty leaves;
// the node is nil at the end of the chain.
//
//ocblint:allocfree
func step(nd *node, i int, desc bool) (*node, int) {
	if desc {
		for i--; i < 0; i = nd.n - 1 {
			if nd = nd.prev; nd == nil {
				return nil, 0
			}
		}
		return nd, i
	}
	for i++; i >= nd.n; i = 0 {
		if nd = nd.next; nd == nil {
			return nil, 0
		}
	}
	return nd, i
}

// seek returns the leaf position of the first key >= k (ascending) or
// the last key <= k (descending); the node is nil when there is none.
//
//ocblint:allocfree
func (t *tree) seek(k key, desc bool) (*node, int) {
	nd := t.findLeaf(k)
	if desc {
		return step(nd, t.search(nd, k, gt), true)
	}
	return step(nd, t.search(nd, k, ge)-1, false)
}

// scan appends to dst the OIDs of entries in [lo, hi], ascending (or
// descending), stopping after limit results when limit > 0, a leaf at a
// time: one search for where the range ends in it, then a copying loop.
//
//ocblint:allocfree
func (t *tree) scan(lo, hi key, limit int, desc bool, dst []backend.OID) []backend.OID {
	stop := len(dst) + limit
	if desc {
		for nd, i := t.seek(hi, true); nd != nil; nd, i = step(nd, 0, true) {
			from := t.search(nd, lo, ge)
			if limit > 0 {
				from = max(from, i+1-(stop-len(dst)))
			}
			for ; i >= from; i-- {
				dst = append(dst, nd.keys[i].oid)
			}
			if from > 0 || limit > 0 && len(dst) == stop {
				break
			}
		}
		return dst
	}
	for nd, i := t.seek(lo, false); nd != nil; nd, i = step(nd, nd.n-1, false) {
		to := t.search(nd, hi, gt)
		if limit > 0 {
			to = min(to, i+stop-len(dst))
		}
		for ; i < to; i++ {
			dst = append(dst, nd.keys[i].oid)
		}
		if to < nd.n || limit > 0 && len(dst) == stop {
			break
		}
	}
	return dst
}

// check audits the leaf chain: links, bounds, strict order, entry count.
func (t *tree) check() error {
	entries := 0
	var prev *key
	for nd := t.first; nd != nil; nd = nd.next {
		if nd.kids != nil || nd.n < 0 || nd.n > t.fanout || nd.next != nil && nd.next.prev != nd {
			return fmt.Errorf("malformed leaf in the chain (%d entries, fanout %d)", nd.n, t.fanout)
		}
		for i := range nd.keys[:nd.n] {
			k := &nd.keys[i]
			if prev != nil && t.cmp(*prev, *k) >= 0 {
				return fmt.Errorf("leaf chain out of order at (%d, %d)", k.attr, k.oid)
			}
			prev = k
			entries++
		}
	}
	if entries != t.size {
		return fmt.Errorf("leaf chain holds %d entries, size says %d", entries, t.size)
	}
	return nil
}

// Index is one store's ordered index: the OID tree, whose entries carry
// each object's current key, and the attribute tree over the bound pairs.
type Index struct {
	objs tree
	keys tree
}

// New returns an empty index of the given node fanout (at least MinFanout);
// with valued, Insert's value is kept and Get returns it.
func New(fanout int, valued bool) *Index {
	fanout = max(fanout, MinFanout)
	x := new(Index)
	x.objs.init(fanout, false, valued)
	x.keys.init(fanout, true, false)
	return x
}

// Len returns the number of indexed objects.
func (x *Index) Len() int { return x.objs.size }

// Nodes returns the number of allocated tree nodes across both trees.
func (x *Index) Nodes() int { return x.objs.nodes + x.keys.nodes }

// Insert indexes oid with value v unless oid is already present, and
// reports whether it did. Ascending OIDs take an O(1) append path.
func (x *Index) Insert(oid backend.OID, v uint64) bool { return x.objs.insert(key{oid: oid}, v) }

// Get returns oid's value (0 without values) and whether oid is indexed.
func (x *Index) Get(oid backend.OID) (uint64, bool) {
	nd, i := x.objs.find(key{oid: oid})
	if nd == nil || nd.vals == nil {
		return 0, nd != nil
	}
	return nd.vals[i], true
}

// Delete removes oid and its key binding; false when oid was not indexed.
func (x *Index) Delete(oid backend.OID) bool {
	nd, i := x.objs.find(key{oid: oid})
	if nd == nil {
		return false
	}
	x.keys.delete(nd.keys[i]) // a no-op when oid is unbound
	x.objs.deleteAt(nd, i)
	return true
}

// SetKey binds oid to attribute key k, replacing any previous binding,
// and reports whether oid is indexed (an absent oid is left unbound).
func (x *Index) SetKey(oid backend.OID, k int64) bool {
	nd, i := x.objs.find(key{oid: oid})
	if nd == nil {
		return false
	}
	x.keys.delete(nd.keys[i]) // a no-op when oid is unbound
	nd.keys[i].attr = k
	x.keys.insert(nd.keys[i], 0)
	return true
}

// Seek returns the first indexed OID >= oid (the last <= oid when desc).
func (x *Index) Seek(oid backend.OID, desc bool) (backend.OID, bool) {
	nd, i := x.objs.seek(key{oid: oid}, desc)
	if nd == nil {
		return backend.NilOID, false
	}
	return nd.keys[i].oid, true
}

// Scan appends the indexed OIDs in [lo, hi] (hi == NilOID: to the end) to
// dst in OID order, reversed when desc, at most limit when limit > 0.
func (x *Index) Scan(lo, hi backend.OID, limit int, desc bool, dst []backend.OID) []backend.OID {
	if hi == backend.NilOID {
		hi = ^backend.NilOID
	}
	return x.objs.scan(key{oid: lo}, key{oid: hi}, limit, desc, dst)
}

// ScanKey appends the OIDs bound to a key in [lo, hi] to dst in
// (key, OID) order, at most limit of them when limit > 0.
func (x *Index) ScanKey(lo, hi int64, limit int, dst []backend.OID) []backend.OID {
	return x.keys.scan(key{attr: lo}, key{attr: hi, oid: ^backend.NilOID}, limit, false, dst)
}

// Check audits both leaf chains and every attribute-tree binding against
// the key its object carries: too slow for the hot path, invaluable after
// a structural bug.
func (x *Index) Check() error {
	if err := x.objs.check(); err != nil {
		return fmt.Errorf("ordindex: OID tree: %w", err)
	}
	if err := x.keys.check(); err != nil {
		return fmt.Errorf("ordindex: attribute tree: %w", err)
	}
	for nd := x.keys.first; nd != nil; nd = nd.next {
		for _, k := range nd.keys[:nd.n] {
			if o, i := x.objs.find(k); o == nil || o.keys[i] != k {
				return fmt.Errorf("ordindex: binding (%d, %d) is not the key a live object carries", k.attr, k.oid)
			}
		}
	}
	return nil
}
