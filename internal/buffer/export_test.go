package buffer

// Dirty returns the pool's count of dirty resident frames, which FlushAll
// trusts to stop early.
func (p *Pool) Dirty() int { return p.dirty }
