package shard

// PooledWindows reports how many released windows the engine's pool holds:
// with no window out, every window the engine ever made.
func (g *AsyncGatherer) PooledWindows() int {
	g.poolMu.Lock()
	defer g.poolMu.Unlock()
	return len(g.pool)
}
