package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/mdd"
	"socyield/internal/yield"
)

// rawModel encodes a model in the store format around arbitrary arena
// data, bypassing Encode's validation: components C, truncation point
// m, group sequence 0..m, zero build scalars but an ROMDD size of 1,
// the size of a terminal root.
func rawModel(c, m int, d mdd.FrozenData) []byte {
	buf := binary.LittleEndian.AppendUint32([]byte(magic), FormatVersion)
	buf = binary.AppendUvarint(buf, uint64(yield.EngineRevision))
	buf = appendString(buf, "")
	buf = appendString(buf, "raw")
	buf = binary.AppendUvarint(buf, uint64(c))
	buf = binary.AppendUvarint(buf, uint64(m))
	buf = append(buf, make([]byte, 4*8)...)  // yield, bound, P_L, λ'
	for _, v := range []uint64{0, 0, 0, 1} { // G gates, binary vars, sizes
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(m+1))
	for gi := range m + 1 {
		buf = binary.AppendUvarint(buf, uint64(gi))
	}
	for _, arr := range [][]int32{d.Domains, d.Levels[2:], d.Kids} {
		buf = binary.AppendUvarint(buf, uint64(len(arr)))
		for _, x := range arr {
			buf = binary.AppendUvarint(buf, uint64(x))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(d.Root))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestDecodeRejectsOversizedDomain checks that a model declaring a
// domain beyond mdd.MaxDomain decodes to ErrCorrupt, and that the same
// bytes with a legal domain decode.
func TestDecodeRejectsOversizedDomain(t *testing.T) {
	arena := func(dom int32) mdd.FrozenData {
		return mdd.FrozenData{Domains: []int32{3, dom}, Levels: []int32{2, 2}, Root: 1}
	}
	if _, err := Decode(rawModel(3, 1, arena(mdd.MaxDomain+1))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("domain %d: error %v, want ErrCorrupt", mdd.MaxDomain+1, err)
	}
	if _, err := Decode(rawModel(3, 1, arena(3))); err != nil {
		t.Errorf("legal model: %v", err)
	}
}

// FuzzFrozenDecode hammers Decode with arbitrary bytes. The contract
// under fuzzing:
//
//   - never panic, never allocate unbounded by the input;
//   - fail only with one of the typed sentinels;
//   - when Decode accepts the bytes, the snapshot must be fully
//     usable — restorable to a Reevaluator that evaluates without
//     error, and re-encodable to bytes Decode accepts again.
//
// The seed corpus is real encoded models (so coverage reaches deep
// into the arena parsing) plus checksum-refitted mutations of them
// (so the fuzzer starts beyond the checksum wall instead of spending
// its budget rediscovering CRC-32C).
func FuzzFrozenDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		sys := randomSystem(rng)
		d, err := defects.NewNegativeBinomial(1+rng.Float64(), 2+rng.Float64())
		if err != nil {
			f.Fatalf("NewNegativeBinomial: %v", err)
		}
		opts := yield.Options{Defects: d, Epsilon: 2e-3}
		key, _, err := yield.ModelKey(sys, opts)
		if err != nil {
			f.Fatalf("ModelKey: %v", err)
		}
		re, err := yield.NewReevaluator(sys, opts)
		if err != nil {
			f.Fatalf("NewReevaluator: %v", err)
		}
		snap := re.Snapshot()
		snap.ModelKey = key
		enc, err := Encode(snap)
		if err != nil {
			f.Fatalf("Encode: %v", err)
		}
		f.Add(enc)
		// Refitted single-byte mutations: structurally interesting,
		// checksum-valid starting points.
		for j := 0; j < 8; j++ {
			mut := append([]byte(nil), enc...)
			mut[rng.Intn(len(mut)-trailerLen)] ^= byte(1 << rng.Intn(8))
			body := mut[:len(mut)-trailerLen]
			binary.LittleEndian.PutUint32(mut[len(mut)-trailerLen:], crc32.Checksum(body, castagnoli))
			f.Add(mut)
		}
		// Refitted truncations crossing section boundaries.
		for _, frac := range []int{4, 2, 3} {
			cut := len(enc) * (frac - 1) / frac
			if cut < headerLen+trailerLen {
				continue
			}
			mut := append([]byte(nil), enc[:cut]...)
			body := mut[:len(mut)-trailerLen]
			binary.LittleEndian.PutUint32(mut[len(mut)-trailerLen:], crc32.Checksum(body, castagnoli))
			f.Add(mut)
		}
	}
	// A model whose v level has one value more than an ROMDD domain may
	// hold (mdd.MaxDomain): the compaction must refuse it.
	f.Add(rawModel(3, 1, mdd.FrozenData{Domains: []int32{3, mdd.MaxDomain + 1}, Levels: []int32{2, 2}, Root: 1}))
	f.Add([]byte(nil))
	f.Add([]byte(magic))
	f.Add([]byte("SYCM\x01\x00\x00\x00"))

	typed := []error{ErrTruncated, ErrBadMagic, ErrVersion, ErrChecksum, ErrEngineRevision, ErrCorrupt}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			for _, want := range typed {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		// Accepted bytes must round all the way: restore, evaluate,
		// re-encode, re-decode.
		re, err := yield.RestoreReevaluator(snap)
		if err != nil {
			t.Fatalf("Decode accepted bytes RestoreReevaluator rejects: %v", err)
		}
		ps := make([]float64, snap.Components)
		for i := range ps {
			ps[i] = 0.1
		}
		if _, _, err := re.Yield(ps, defects.Deterministic{N: 1}); err != nil {
			t.Fatalf("restored model cannot evaluate: %v", err)
		}
		enc, err := Encode(snap)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if _, err := Decode(enc); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
	})
}
