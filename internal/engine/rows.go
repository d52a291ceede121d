package engine

import (
	"fmt"

	"repro/internal/nfa"
)

// rows is the one match-time transition layout of every eager engine:
// one row of `classes` entries per state, indexed by the byte class of
// the input byte, each entry pre-multiplied to the successor's row
// offset (succ × classes). A byte then costs one classOf load (off the
// dependent chain) plus one add and one dependent row load — the paper's
// one lookup per byte per thread — and the rows are as dense as the
// automaton's alphabet allows.
type rows struct {
	next    []uint32 // states × classes, entry = succ × classes
	classOf *[256]uint8
	classes uint32
}

// rowsFit reports whether an automaton of states × classes entries can
// be addressed by uint32 row offsets.
func rowsFit(states, classes int) bool {
	return states >= 0 && classes > 0 && uint64(states)*uint64(classes) <= 1<<32
}

// newRows pre-multiplies a class-indexed successor table (nextC[q*classes+c])
// into rows. It panics when the offsets would overflow uint32.
func newRows(nextC []int32, bc *nfa.ByteClasses) rows {
	nc := bc.Count
	if !rowsFit(len(nextC)/nc, nc) {
		panic(fmt.Sprintf("engine: %d states × %d classes overflow uint32 row offsets", len(nextC)/nc, nc))
	}
	next := make([]uint32, len(nextC))
	for i, to := range nextC {
		next[i] = uint32(to) * uint32(nc)
	}
	return rows{next: next, classOf: &bc.Of, classes: uint32(nc)}
}

// walk returns the state reached from q over text. The byte loop is
// unrolled 4×: the four classOf loads are independent of the state, so
// only the row loads form the serial load-to-load chain.
//
//sfa:noalloc
func (r *rows) walk(q int32, text []byte) int32 {
	next, classOf := r.next, r.classOf
	o := uint32(q) * r.classes
	i := 0
	for ; i+4 <= len(text); i += 4 {
		b := text[i : i+4 : i+4]
		c0, c1, c2, c3 := uint32(classOf[b[0]]), uint32(classOf[b[1]]), uint32(classOf[b[2]]), uint32(classOf[b[3]])
		o = next[o+c0]
		o = next[o+c1]
		o = next[o+c2]
		o = next[o+c3]
	}
	for ; i < len(text); i++ {
		o = next[o+uint32(classOf[text[i]])]
	}
	return int32(o / r.classes)
}

// bytes is the resident size of the rows.
func (r *rows) bytes() int64 { return int64(len(r.next)) * 4 }
