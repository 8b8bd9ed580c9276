package ilu

import (
	"math"
	"math/bits"
)

// colQueue drives an elimination sweep: it yields the columns pushed into
// it in ascending order, each once. It is a bitmap over the column space
// read by one forward cursor, which is all a sweep needs — every push
// during a sweep is a column greater than the one just popped, so the
// next set bit at or after the cursor is the smallest column queued.
// Pushing a queued column again changes nothing. The queue is empty
// whenever no sweep is running: a sweep ends when pop has drained it. The
// zero value needs a resize.
type colQueue struct {
	bits []uint64
	// Words cur..last may hold a set bit, no other word does; cur > last
	// when the queue is empty.
	cur, last int
}

// resize makes the queue cover columns [0, n). It must be empty.
func (q *colQueue) resize(n int) {
	if words := (n + 63) >> 6; words > len(q.bits) {
		q.bits = make([]uint64, words)
	}
	q.cur, q.last = math.MaxInt, -1
}

// push queues column j. During a sweep j must exceed the column popped
// last.
//
//pilut:hotpath
func (q *colQueue) push(j int) {
	wi := j >> 6
	q.bits[wi] |= 1 << (uint(j) & 63)
	if wi < q.cur {
		q.cur = wi
	}
	if wi > q.last {
		q.last = wi
	}
}

// pop removes and returns the smallest queued column, or −1 when the
// queue is empty.
//
//pilut:hotpath
func (q *colQueue) pop() int {
	for ; q.cur <= q.last; q.cur++ {
		if w := q.bits[q.cur]; w != 0 {
			q.bits[q.cur] = w & (w - 1)
			return q.cur<<6 | bits.TrailingZeros64(w)
		}
	}
	q.cur, q.last = math.MaxInt, -1
	return -1
}

// clear empties the queue, whatever a sweep that panicked left in it.
func (q *colQueue) clear() {
	if q.cur <= q.last {
		clear(q.bits[q.cur : q.last+1])
	}
	q.cur, q.last = math.MaxInt, -1
}

// checkEmpty panics if any column is queued.
func (q *colQueue) checkEmpty() {
	for _, w := range q.bits {
		if w != 0 {
			panic("ilu: pivot queue not empty: a column survived its sweep")
		}
	}
}
