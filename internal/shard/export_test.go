package shard

// PooledWindows reports how many released windows the engine's pool holds:
// with no window out, every window the engine ever made.
func (g *AsyncGatherer) PooledWindows() int {
	g.poolMu.Lock()
	defer g.poolMu.Unlock()
	return len(g.pool)
}

// OpenWindows reports how many submitted windows are not yet released.
func (g *AsyncGatherer) OpenWindows() int {
	g.openMu.Lock()
	defer g.openMu.Unlock()
	return len(g.open)
}
