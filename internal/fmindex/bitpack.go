package fmindex

import (
	"fmt"
	"slices"
)

// bitsFor returns the number of bits needed to represent values in
// [0, n), at least 1.
func bitsFor(n uint32) int {
	bits := 1
	for n > 1<<bits {
		bits++
	}
	return bits
}

// packBits appends count entries, entry(0..count-1), LSB-first at the
// given bit width to out[:0] and returns it. The page map stores one
// entry per BWT row; bit-packing (plus the component layer's
// compression) is what keeps the FM-index within the paper's "almost
// as large as the compressed Parquets" envelope rather than several
// times it.
// The stream is LSB-first: entry i's bit b lands at absolute bit
// position i*bits+b, stored in out[pos/8] at in-byte position pos%8.
// The 64-bit accumulator below emits that exact stream (bits <= 32 and
// at most 7 bits carry over, so it never overflows), one shift-or per
// entry instead of one branch per bit.
func packBits(out []byte, count, bits int, entry func(i int) uint32) []byte {
	size := (count*bits + 7) / 8
	out = slices.Grow(out[:0], size)[:size]
	mask := uint64(1)<<bits - 1
	var acc uint64
	fill := 0
	o := 0
	for i := 0; i < count; i++ {
		acc |= (uint64(entry(i)) & mask) << fill
		fill += bits
		for fill >= 8 {
			out[o] = byte(acc)
			o++
			acc >>= 8
			fill -= 8
		}
	}
	if fill > 0 {
		out[o] = byte(acc)
	}
	return out
}

// unpackBit extracts entry idx from a packed block by loading the (at
// most five) bytes spanning it into one word.
func unpackBit(data []byte, idx, bits int) (uint32, error) {
	start := idx * bits
	end := start + bits
	if (end+7)/8 > len(data) {
		return 0, fmt.Errorf("fmindex: packed block truncated at entry %d", idx)
	}
	var v uint64
	for i := (end+7)/8 - 1; i >= start/8; i-- {
		v = v<<8 | uint64(data[i])
	}
	v >>= uint(start % 8)
	return uint32(v & (uint64(1)<<bits - 1)), nil
}
