package buffer

import "ocb/internal/disk"

// Sharded, Policy, LRU and NewSharded are kept only for the benchmarks
// module, which still builds its buffer probe with
// NewSharded(d, frames, LRU, 1); nothing else may use them. All go once
// that caller moves to New.

// Sharded is Pool under its former name.
type Sharded = Pool

// Policy is NewSharded's ignored replacement-policy argument.
type Policy int

// LRU is the only value callers pass as a Policy.
const LRU Policy = 0

// NewSharded is New. Both trailing arguments are ignored: LRU is the only
// policy, and the buffer is never split.
func NewSharded(d *disk.Disk, capacity int, _ Policy, _ int) (*Pool, error) {
	return New(d, capacity)
}
