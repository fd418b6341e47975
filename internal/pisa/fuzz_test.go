package pisa

import (
	"math/rand"
	"testing"
)

// fuzzWidths are the key widths a fuzzed table draws from: dense
// dimensions small enough for probes to hit, and two cell-indexed ones.
var fuzzWidths = [8]int{1, 2, 3, 4, 5, 6, 13, 16}

// fuzzAlphabet is the action data a fuzzed entry draws from: few values,
// so that equal-data runs — cover group candidates — form.
var fuzzAlphabet = [4][]int32{{1, 10}, {2, 20}, {3, 30}, {4, 40}}

// ternaryFromBytes decodes a one-table program and its probe keys:
//
//	b[0]            bits 0-1: key fields, 2 + (v mod 3); bit 2: default data present
//	b[1..nf]        width of each field, fuzzWidths[v & 7]
//	b[1+nf]         number of entries (as many as the input holds)
//	per entry       data (fuzzAlphabet[v & 3]), then per field: prefix length
//	                (mod width+1), key high byte, key low byte
//	the rest        probe keys, two bytes per field
//
// Every entry's lowest and highest key are probed as well, so entries
// are hit whatever the probe bytes say. Keys are cut to prefix masks:
// every input decodes to a valid table.
func ternaryFromBytes(b []byte) (*Program, []FieldID, [][]int32) {
	next := func() uint32 {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return uint32(v)
	}
	head := next()
	var l Layout
	tbl := &Table{Name: "fuzzed", Kind: MatchTernary}
	for d := 0; d < 2+int(head&3)%3; d++ {
		tbl.KeyFields = append(tbl.KeyFields, l.MustAdd(nm("k", d), 16))
		tbl.KeyWidths = append(tbl.KeyWidths, fuzzWidths[next()&7])
	}
	out, acc := l.MustAdd("out", 32), l.MustAdd("acc", 32)
	tbl.Action = []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}, {Kind: OpAddData, Dst: acc, A: acc, DataIdx: 1}}
	if head&4 != 0 {
		tbl.DefaultData = []int32{-1, 5}
	}
	var probes [][]int32
	for n := next(); n > 0 && len(b) > 3*len(tbl.KeyWidths); n-- {
		e := Entry{Data: fuzzAlphabet[next()&3]}
		lo, hi := make([]int32, len(tbl.KeyWidths)), make([]int32, len(tbl.KeyWidths))
		for d, w := range tbl.KeyWidths {
			mask := widthMask(w) &^ widthMask(w-int(next())%(w+1))
			key := (next()<<8 | next()) & mask
			e.Key, e.Mask = append(e.Key, key), append(e.Mask, mask)
			lo[d], hi[d] = int32(key), int32(key|widthMask(w)&^mask)
		}
		tbl.Entries = append(tbl.Entries, e)
		probes = append(probes, lo, hi)
	}
	for len(b) > 0 {
		in := make([]int32, len(tbl.KeyWidths))
		for d := range in {
			in[d] = int32(next()<<8 | next())
		}
		probes = append(probes, in)
	}
	prog := NewProgram("fuzzed", &l, Tofino2)
	prog.Place(0, tbl)
	return prog, tbl.KeyFields, probes
}

// ternaryBytes is ternaryFromBytes' inverse for a given table, less the
// probes.
func ternaryBytes(widths []int, def bool, entries []Entry) []byte {
	b := []byte{byte(len(widths) - 2)}
	if def {
		b[0] |= 4
	}
	for _, w := range widths {
		for i, fw := range fuzzWidths {
			if fw == w {
				b = append(b, byte(i))
			}
		}
	}
	b = append(b, byte(len(entries)))
	for _, e := range entries {
		for i := range fuzzAlphabet {
			if &fuzzAlphabet[i][0] == &e.Data[0] {
				b = append(b, byte(i))
			}
		}
		for d, w := range widths {
			plen := 0
			for widthMask(w)&^widthMask(w-plen) != e.Mask[d] {
				plen++
			}
			b = append(b, byte(plen), byte(e.Key[d]>>8), byte(e.Key[d]))
		}
	}
	return b
}

// FuzzTernaryLowering compares the interpreter with the compiled plan
// on prefix-ternary tables of two to four key fields decoded from the
// input — whatever specializeTernary makes of them: cover groups, one
// group per rule, dense and cell-indexed rows — over every PHV field.
// The seeds are coverRuns tables (products, broken products, cut
// products) of a few rules and of several row words.
func FuzzTernaryLowering(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, widths := range [][]int{{3, 4}, {4, 13, 2}, {2, 16, 3, 5}} {
		for _, rules := range []int{6, 150} {
			var entries []Entry
			for len(entries) < rules {
				entries = coverRuns(rng, widths, fuzzAlphabet[:], entries)
			}
			f.Add(append(ternaryBytes(widths, rules > 6, entries[:min(len(entries), 255)]), 0, 1, 2, 3, 4, 5, 6, 7))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		prog, keys, probes := ternaryFromBytes(b)
		diffProcess(t, prog, CompileProgram(prog), keys, probes)
	})
}
