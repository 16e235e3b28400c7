package csr

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"gcore/internal/value"
)

// Equality seek. A column can answer `key = constant` without visiting
// every ordinal: every seekable ordinal gets a 64-bit seek key that
// equal values share, and eqIndex lists those ordinals sorted by (key,
// ordinal) — the ordinals of one key are a contiguous ascending run
// found by binary search.
//
// Lifetime: the index is built on the first seek of a column and never
// changes afterwards. It hangs off the PropCol, and a delta apply shares
// every column it does not write by pointer (applyCols), so an untouched
// column carries its index into the next snapshot version; a rebuilt
// column is a new PropCol and starts unindexed. Nothing is ever
// invalidated.
//
// Contract: SeekEq(lit) returns a superset of the ordinals o with
// value.Eq(SetAt(o), lit) true. It only narrows a candidate list —
// callers still test every ordinal they take from it — and it declines
// (ok=false) wherever that superset is not immediate from the column
// and constant kinds:
//
//   - a typed column indexes every present ordinal under its payload
//     (int64, day number, float bits, interned string id, bool) and
//     seeks constants of its own kind only. NaN is neither indexed nor
//     sought: value.Eq holds NaNs equal, Go's == does not, and the typed
//     predicates already leave NaN to the value operators,
//   - an overflow column indexes its singleton strings, bools and dates
//     under their value.Hash (a collision only widens the run) and seeks
//     constants of those kinds: value.Eq is FALSE between a scalar and a
//     non-singleton set, and these kinds equal nothing of another kind.
//     Numeric constants decline — ints and floats equal each other
//     across kinds, which neither a payload nor a hash key captures.
type eqIndex struct {
	ords []int32 // sorted by (seek key, ordinal)
}

// SeekEq returns the ascending ordinals that may satisfy `prop = lit`,
// building the column's index on first use. built reports that this
// call built it; ok is false when the column cannot narrow for this
// constant and the caller must scan. The result is shared: read only.
func (c *PropCol) SeekEq(lit value.Value, in *Interner) (ords []int32, built, ok bool) {
	key, known, ok := c.seekKeyOf(lit.Scalarize(), in)
	if !ok || !known {
		return nil, false, ok
	}
	ix, built := c.index()
	lo := sort.Search(len(ix.ords), func(i int) bool { return c.seekKeyAt(ix.ords[i]) >= key })
	n := sort.Search(len(ix.ords)-lo, func(i int) bool { return c.seekKeyAt(ix.ords[lo+i]) > key })
	return ix.ords[lo : lo+n : lo+n], built, true
}

// seekKeyOf maps a scalar constant to the seek key its equals carry in
// this column. ok is false when the column declines the constant's
// kind; known is false when no element can equal it (a string the
// snapshot never interned), which answers the seek with nothing.
func (c *PropCol) seekKeyOf(lit value.Value, in *Interner) (key uint64, known, ok bool) {
	switch c.kind {
	case ColInt:
		l, isInt := lit.AsInt()
		return uint64(l), true, isInt
	case ColDate:
		l, isDate := lit.AsDateDays()
		return uint64(l), true, isDate
	case ColFloat:
		l, _ := lit.AsFloat()
		return floatSeekKey(l), true, lit.Kind() == value.KindFloat && !math.IsNaN(l)
	case ColString:
		s, isStr := lit.AsString()
		if !isStr {
			return 0, false, false
		}
		id, interned := in.Lookup(s)
		return uint64(id), interned, true
	case ColBool:
		l, isBool := lit.AsBool()
		return boolSeekKey(l), true, isBool
	}
	return lit.Hash(value.HashSeed()), true, overflowSeekable(lit)
}

// seekKeyAt is the seek key of an indexed ordinal.
func (c *PropCol) seekKeyAt(o int32) uint64 {
	switch c.kind {
	case ColInt, ColDate:
		return uint64(c.ints[o])
	case ColFloat:
		return floatSeekKey(c.floats[o])
	case ColString:
		return uint64(c.strs[o])
	case ColBool:
		return boolSeekKey(c.BoolAt(o))
	}
	return c.sets[o].Scalarize().Hash(value.HashSeed())
}

// floatSeekKey is the bit pattern with -0 folded onto +0 (they are ==).
func floatSeekKey(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

func boolSeekKey(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// overflowSeekable reports whether an overflow column indexes (and
// seeks) a scalar: the kinds with no cross-kind equality.
func overflowSeekable(v value.Value) bool {
	switch v.Kind() {
	case value.KindString, value.KindBool, value.KindDate:
		return true
	}
	return false
}

// seekableAt reports whether a present ordinal belongs in the index.
func (c *PropCol) seekableAt(o int32) bool {
	switch c.kind {
	case ColOverflow:
		el, single := c.sets[o].Singleton()
		return single && overflowSeekable(el)
	case ColFloat:
		return !math.IsNaN(c.floats[o])
	}
	return true
}

// index returns the column's index, building it once. Concurrent first
// seekers serialise on the mutex; later ones take the atomic load.
func (c *PropCol) index() (ix *eqIndex, built bool) {
	if ix = c.eq.Load(); ix != nil {
		return ix, false
	}
	c.eqMu.Lock()
	defer c.eqMu.Unlock()
	if ix = c.eq.Load(); ix != nil {
		return ix, false
	}
	ix = c.buildEqIndex()
	c.eq.Store(ix)
	return ix, true
}

// buildEqIndex gathers the seekable ordinals with their keys, ascending,
// and radix-sorts them by key. The sort is stable, so each key's run
// stays in ascending ordinal order; it is linear in the column, which
// keeps a first seek within a small multiple of the scan it replaces —
// a column rewritten between every two reads pays that on each read.
func (c *PropCol) buildEqIndex() *eqIndex {
	n := 0
	for _, w := range c.present {
		n += bits.OnesCount64(w)
	}
	keys, ords := make([]uint64, 0, n), make([]int32, 0, n)
	var or, and uint64 = 0, math.MaxUint64
	for wi, w := range c.present {
		for ; w != 0; w &= w - 1 {
			o := int32(wi<<6 | bits.TrailingZeros64(w))
			if !c.seekableAt(o) {
				continue
			}
			k := c.seekKeyAt(o)
			keys, ords = append(keys, k), append(ords, o)
			or, and = or|k, and&k
		}
	}
	tmpKeys, tmpOrds := make([]uint64, len(keys)), make([]int32, len(ords))
	varying := or ^ and // digits on which all keys agree need no pass
	for shift := 0; shift < 64; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue
		}
		var start [256]int
		for _, k := range keys {
			start[(k>>shift)&0xff]++
		}
		pos := 0
		for d, cnt := range start {
			start[d], pos = pos, pos+cnt
		}
		for i, k := range keys {
			d := (k >> shift) & 0xff
			tmpKeys[start[d]], tmpOrds[start[d]] = k, ords[i]
			start[d]++
		}
		keys, tmpKeys, ords, tmpOrds = tmpKeys, keys, tmpOrds, ords
	}
	return &eqIndex{ords: ords}
}

// checkEqIndex verifies a built index against a from-scratch build of
// the same column; a column never sought has nothing to verify.
func (c *PropCol) checkEqIndex() error {
	ix := c.eq.Load()
	if ix == nil {
		return nil
	}
	if want := c.buildEqIndex(); !slices.Equal(ix.ords, want.ords) {
		return fmt.Errorf("equality index holds %d ordinals that differ from a rebuild (%d)", len(ix.ords), len(want.ords))
	}
	return nil
}
