package cache

import (
	"testing"

	"rottnest/internal/obs"
)

// FuzzCache drives the engine with a byte-scripted operation sequence
// (two bytes per step: operation and key, then cost) over a tiny key
// space and checks it against the naive model after every step — the
// same oracle as TestEngineMatchesModel, with the fuzzer choosing the
// interleaving of loads, failed loads, mid-load invalidations, reads,
// tag invalidations and flushes.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0x00, 0xc3, 0x04})
	f.Add([]byte{0xff, 0xff, 0x00, 0x80, 0x40, 0xc0, 0x01, 0x81, 0x30, 0x60, 0x70, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		evictions := &obs.Counter{}
		c := New[int, int](256, Metrics{Evictions: evictions})
		m := &model{max: 256}
		next := 0
		for i := 0; i+1 < len(script); i += 2 {
			step(t, c, m, evictions, &next, int(script[i]>>4)%8, int(script[i]&0xf), int64(script[i+1]%97))
		}
	})
}
