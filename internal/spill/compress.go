package spill

// LZ4-style block compression. The shuffle wire does not use it: on the
// cluster GBJ it saved under a fifth of the bytes while costing more
// wall-clock than it saved, so chunks cross uncompressed. It stays a
// library, with its fuzzers, for the layer benchmark in perfbench and
// for run files that may adopt it later without a new dependency.
//
// The format is a greedy LZ77 with varint-coded sequences — the same
// family as LZ4's block format, restated in this package's varint
// idiom so no external library is needed:
//
//	block  := sequence* trailer?
//	sequence := uvarint(litLen) literal*litLen
//	            uvarint(matchLen-minMatch) uvarint(offset)
//	trailer  := uvarint(litLen) literal*litLen   (no match; ends the block)
//
// The decompressed length is NOT part of the block — callers carry it
// out of band, which is also what makes DecompressBlock's output
// allocation exactly right and corruption detectable: a block that does not decode to exactly rawLen bytes is
// an error, never a panic or an over-allocation.

import (
	"encoding/binary"
	"fmt"
	"sync"
)

const (
	// compressMinMatch is the shortest back-reference worth encoding:
	// a match costs >= 2 bytes (two varints), so 4 is the break-even.
	compressMinMatch = 4
	// compressHashBits sizes the match-finder table (entries, not
	// bytes); 1<<14 int32s = 64KiB, scanned linearly by the hardware
	// prefetcher.
	compressHashBits = 14
)

// hashTablePool recycles the match-finder tables so per-chunk
// compression does not allocate 64KiB each call.
var hashTablePool = sync.Pool{
	New: func() any { return new([1 << compressHashBits]int32) },
}

// compressHash maps 4 bytes to a table slot (Knuth multiplicative).
func compressHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - compressHashBits)
}

// CompressBlock compresses src into a fresh buffer. The output is a
// self-contained block; pair it with len(src) to decompress. It never
// fails, but on incompressible input the block is slightly LARGER than
// src (varint framing overhead) — callers compare lengths and keep the
// raw bytes when compression does not pay.
func CompressBlock(src []byte) []byte {
	// Worst case: one literal run — varint length plus the bytes.
	dst := make([]byte, 0, len(src)+binary.MaxVarintLen64)
	if len(src) < compressMinMatch {
		return appendLiterals(dst, src)
	}
	table := hashTablePool.Get().(*[1 << compressHashBits]int32)
	defer hashTablePool.Put(table)
	// Slots store position+1 so the zeroed table reads as "empty".
	for i := range table {
		table[i] = 0
	}
	var (
		anchor int // start of pending literals
		i      int
		limit  = len(src) - compressMinMatch
	)
	for i <= limit {
		cur := binary.LittleEndian.Uint32(src[i:])
		h := compressHash(cur)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != cur {
			i++
			continue
		}
		// Extend the match forward.
		mlen := compressMinMatch
		for i+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
		dst = appendLiterals(dst, src[anchor:i])
		dst = binary.AppendUvarint(dst, uint64(mlen-compressMinMatch))
		dst = binary.AppendUvarint(dst, uint64(i-cand))
		i += mlen
		anchor = i
	}
	return appendLiterals(dst, src[anchor:])
}

// appendLiterals emits one literal run (possibly empty — a zero-length
// run is how two adjacent matches are encoded).
func appendLiterals(dst, lits []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(lits)))
	return append(dst, lits...)
}

// DecompressBlock decodes a block produced by CompressBlock into
// exactly rawLen bytes. Every length and offset is bounds-checked
// against rawLen before any copy, so corrupt or truncated input
// returns an error — never a panic, never an allocation beyond rawLen.
func DecompressBlock(block []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 {
		return nil, fmt.Errorf("spill: negative decompressed length %d", rawLen)
	}
	out := make([]byte, 0, rawLen)
	for len(block) > 0 || len(out) < rawLen {
		litLen, n := binary.Uvarint(block)
		if n <= 0 {
			return nil, fmt.Errorf("spill: corrupt block: bad literal length at byte %d", rawLen-cap(out)+len(out))
		}
		block = block[n:]
		if litLen > uint64(rawLen-len(out)) || litLen > uint64(len(block)) {
			return nil, fmt.Errorf("spill: corrupt block: literal run of %d overflows (have %d raw, %d block)",
				litLen, rawLen-len(out), len(block))
		}
		out = append(out, block[:litLen]...)
		block = block[litLen:]
		if len(block) == 0 {
			break // trailer: literals only
		}
		mlenRaw, n := binary.Uvarint(block)
		if n <= 0 {
			return nil, fmt.Errorf("spill: corrupt block: bad match length")
		}
		block = block[n:]
		off, n := binary.Uvarint(block)
		if n <= 0 {
			return nil, fmt.Errorf("spill: corrupt block: bad match offset")
		}
		block = block[n:]
		mlen := mlenRaw + compressMinMatch
		if off == 0 || off > uint64(len(out)) {
			return nil, fmt.Errorf("spill: corrupt block: offset %d with only %d bytes decoded", off, len(out))
		}
		if mlen > uint64(rawLen-len(out)) {
			return nil, fmt.Errorf("spill: corrupt block: match of %d overflows %d remaining", mlen, rawLen-len(out))
		}
		// Byte-at-a-time copy: offsets smaller than the match length
		// deliberately replicate the just-written bytes (RLE-style).
		pos := len(out) - int(off)
		for j := uint64(0); j < mlen; j++ {
			out = append(out, out[pos])
			pos++
		}
	}
	if len(out) != rawLen {
		return nil, fmt.Errorf("spill: corrupt block: decoded %d bytes, want %d", len(out), rawLen)
	}
	return out, nil
}
