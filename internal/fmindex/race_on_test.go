//go:build race

package fmindex

// raceEnabled reports whether the race detector is compiled in. The
// allocation budget test skips under it: in race builds sync.Pool
// drops a quarter of what is put back, so how many flate writers a
// build allocates is left to chance.
const raceEnabled = true
