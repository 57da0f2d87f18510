// Package markdirty is the markdirty analyzer's fixture, exercising the
// window-repair protocol against the real shard.Service type.
package markdirty

import "hotline/internal/shard"

//hotline:mutates-rows
func good(s *shard.Service, rows []int32, w []float32) {
	s.MarkDirty(0, rows)
	for i := range w {
		w[i] = 0
	}
}

// guarded may run inert guards (len checks that only return) before the
// mark; the protocol is still satisfied.
//
//hotline:mutates-rows
func guarded(s *shard.Service, rows []int32, w []float32) {
	if len(rows) == 0 {
		return
	}
	s.MarkDirty(0, rows)
	w[0] = 1
}

//hotline:mutates-rows
func never(w []float32) { // want "never calls Service.MarkDirty"
	_ = len(w)
}

//hotline:mutates-rows
func unmarked(w []float32) {
	for i := range w { // want "may mutate rows before calling MarkDirty"
		w[i] = 0
	}
}

//hotline:mutates-rows
func late(s *shard.Service, rows []int32, w []float32) {
	w[0] = 1 // want "may mutate rows before calling MarkDirty"
	s.MarkDirty(0, rows)
}

//hotline:mutates-rows
func conditional(s *shard.Service, rows []int32, w []float32) {
	if len(rows) > 0 { // want "calls MarkDirty conditionally"
		s.MarkDirty(0, rows)
	}
	w[0] = 1
}

func undeclared(s *shard.Service, rows []int32) { // want "not annotated //hotline:mutates-rows"
	s.MarkDirty(0, rows)
}
