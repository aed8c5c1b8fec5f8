//go:build race

package engine

// raceEnabled reports whether the race detector is instrumenting this
// build. Allocation-count assertions are meaningless under it: sync.Pool
// deliberately drops a share of Put items, so pooled workspaces are
// rebuilt at random.
const raceEnabled = true
