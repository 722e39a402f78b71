package cache

import "testing"

// FuzzCache drives the engine with a byte-scripted operation sequence
// (three bytes per step: operation and key, cost, then the class a
// load inserts under) over a tiny key space and checks it against the
// naive model after every step — the same oracle as
// TestEngineMatchesModel, with the fuzzer choosing the interleaving of
// ordinary and yielding loads, failed loads, mid-load invalidations,
// reads, tag invalidations and flushes.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0x00, 0xc3, 0x04})
	f.Add([]byte{0xff, 0xff, 0x00, 0x80, 0x40, 0xc0, 0x01, 0x81, 0x30, 0x60, 0x70, 0x00})
	// Ordinary entries fill the budget, a yielding one is inserted and
	// hit, then more ordinary loads force evictions past it.
	f.Add([]byte{
		0x00, 60, 0, 0x01, 60, 0, 0x02, 60, 0, 0x03, 60, 0, 0x04, 30, 1,
		0x44, 0, 0, 0x05, 60, 0, 0x06, 60, 0, 0x34, 10, 1, 0x64, 0, 0, 0x70, 0, 0,
	})
	f.Fuzz(func(t *testing.T, script []byte) {
		r := newRig(256)
		for i := 0; i+2 < len(script); i += 3 {
			step(t, r, int(script[i]>>4)%8, int(script[i]&0xf), int64(script[i+1]%97), script[i+2]&1 == 1)
		}
	})
}
