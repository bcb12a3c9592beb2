// Package allocfree is the corpus for the hot-path allocation
// analyzer: //sopslint:hotpath is the corpus stand-in for the repo's
// central hot-path list, and every steady-state allocation class below
// carries a want.
package allocfree

import (
	"fmt"

	"allocfree/helper"
)

type point struct{ X, Y float64 }

type box struct{ buf []float64 }

//sopslint:hotpath corpus stand-in for a per-step inner loop
func step(buf []float64) []float64 {
	s := make([]float64, 4) // want "make allocates"
	_ = s
	t := []int{1, 2} // want "slice literal allocates"
	_ = t
	u := map[string]bool{} // want "map literal allocates"
	_ = u
	p := &point{1, 2} // want "address-taken composite literal escapes to the heap"
	_ = p
	q := point{1, 2} // stack value: fine
	_ = q
	var local []float64
	local = append(local, 1) // want "append may grow the backing array"
	_ = local
	buf = append(buf, 1) // caller-provided dst: the reuse idiom
	n := 3
	f := func() { n++ } // want "closure capturing n allocates its environment"
	f()
	_ = fmt.Sprint(n) // want "variadic call to fmt.Sprint materializes an argument slice" "boxes it on the heap"
	b := []byte("hi") // want "conversion copies"
	_ = b
	_ = helper.Build(3) // want "call to helper.Build, which allocates,"
	_ = localAlloc()    // want "call to allocfree.localAlloc, which allocates,"
	buf = helper.Grow(buf, 8)
	if cap(buf) < 9 {
		buf = make([]float64, 9) // cap-guarded grow path: fine
	}
	return buf
}

func localAlloc() []int { return []int{1} }

//sopslint:hotpath scratch reuse is the sanctioned steady-state shape
func (b *box) fill(v float64) {
	b.buf = append(b.buf[:0], v) // reslice dst: fine
	logs := b.buf[:0]
	logs = append(logs, v) // scratch-derived local: fine
	b.buf = logs
}

//sopslint:hotpath error exits are cold
func hotErr(n int) error {
	if n < 0 {
		return fmt.Errorf("allocfree: bad n %d", n) // cold error exit: fine
	}
	return nil
}

func keep[T any](v T) T { return v }

//sopslint:hotpath a generic callee is instantiated: nothing is boxed
func hotGeneric(xs []float64) []float64 {
	return keep(xs) // T = []float64: fine
}

/* want "needs a reason" */ //sopslint:hotpath
func hotNoReason()          {}
