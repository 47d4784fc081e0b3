package remote

import (
	"testing"

	"ocb/internal/disk"
	"ocb/internal/wire"
)

// TestTrailerMergeKeepsTheNewest pins the client's merge rule without any
// timing: a trailer that arrives out of sequence order (a reply that was
// overtaken on another pooled connection) never moves DiskStats back, and
// a newer trailer with zeroed counters — a ResetStats — is adopted.
func TestTrailerMergeKeepsTheNewest(t *testing.T) {
	at := func(seq, n uint64) wire.Trailer {
		tr := wire.Trailer{Seq: seq}
		tr.Disk.Reads[disk.Transaction] = n
		tr.Disk.Reads[disk.Clustering] = n + 1
		tr.Disk.Writes[disk.Transaction] = n + 2
		tr.Disk.Writes[disk.Clustering] = n + 3
		return tr
	}
	s := &Store{}
	for _, step := range []struct {
		name string
		in   wire.Trailer
		want disk.Stats
	}{
		{"first reply", at(100, 5), at(100, 5).Disk},
		{"newer reply", at(102, 9), at(102, 9).Disk},
		{"overtaken reply", at(101, 7), at(102, 9).Disk},
		{"same sequence again", wire.Trailer{Seq: 102}, at(102, 9).Disk},
		{"reset", wire.Trailer{Seq: 103}, disk.Stats{}},
		{"overtaken by the reset", at(102, 9), disk.Stats{}},
		{"after the reset", at(104, 1), at(104, 1).Disk},
	} {
		s.observe(step.in)
		if got := s.DiskStats(); got != step.want {
			t.Fatalf("%s (seq %d): DiskStats = %+v, want %+v", step.name, step.in.Seq, got, step.want)
		}
	}
}
