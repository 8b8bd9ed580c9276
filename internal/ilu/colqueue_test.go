package ilu

import (
	"math/rand"
	"testing"
)

// refHeap is the binary min-heap of column indices that drove the
// sequential sweep before the bitmap queue, kept as the reference the
// queue is held to: same init, push, pop and sift-down.
type refHeap []int

func (h *refHeap) init() {
	n := len(*h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *refHeap) push(x int) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *refHeap) pop() int {
	old := *h
	n := len(old)
	x := old[0]
	old[0] = old[n-1]
	*h = old[:n-1]
	h.down(0, n-1)
	return x
}

func (h refHeap) down(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l] < h[m] {
			m = l
		}
		if r < n && h[r] < h[m] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// TestColQueueMatchesHeapReference drives the queue and the heap through
// the same sweeps — an initial load in ascending order, then pops
// interleaved with pushes of columns greater than the one just popped, the
// only pushes a sweep makes — and demands the same pop sequence and an
// empty queue at the end. The heap is fed a column only when it is not
// already queued, as the sweep that used it did; the queue is fed every
// time, so duplicate pushes are exercised on every seed. Ranges end on,
// just before and just after word boundaries, and the fixed sweeps put
// columns on the boundaries themselves.
func TestColQueueMatchesHeapReference(t *testing.T) {
	sweep := func(t *testing.T, q *colQueue, n int, initial []int, next func(popped int) []int) {
		t.Helper()
		var h refHeap
		queued := make(map[int]bool)
		for _, j := range initial {
			q.push(j)
			if !queued[j] {
				queued[j] = true
				h = append(h, j)
			}
		}
		h.init()
		for len(h) > 0 {
			want := h.pop()
			got := q.pop()
			if got != want {
				t.Fatalf("n=%d: popped %d, the heap %d", n, got, want)
			}
			delete(queued, want)
			for _, j := range next(want) {
				if j <= want || j >= n {
					t.Fatalf("test bug: push of %d after %d in a range of %d", j, want, n)
				}
				q.push(j)
				q.push(j)
				if !queued[j] {
					queued[j] = true
					h.push(j)
				}
			}
		}
		if got := q.pop(); got != -1 {
			t.Fatalf("n=%d: queue still yields %d after the heap ran dry", n, got)
		}
		q.checkEmpty()
	}

	for _, n := range []int{1, 63, 64, 65, 4097} {
		var q colQueue
		q.resize(n)
		// Fixed sweeps: every column; the word boundaries alone; a single
		// column that chains to the end one step at a time.
		all := make([]int, n)
		for j := range all {
			all[j] = j
		}
		sweep(t, &q, n, all, func(int) []int { return nil })
		var edges []int
		for j := 0; j < n; j += 64 {
			edges = append(edges, j)
			if j+63 < n {
				edges = append(edges, j+63)
			}
		}
		sweep(t, &q, n, edges, func(k int) []int {
			if k+64 < n {
				return []int{k + 64} // lands on a queued boundary or the next word's twin
			}
			return nil
		})
		sweep(t, &q, n, []int{0}, func(k int) []int {
			if k+1 < n {
				return []int{k + 1}
			}
			return nil
		})
		for seed := int64(0); seed < 200; seed++ {
			r := rand.New(rand.NewSource(seed))
			var initial []int
			for j := 0; j < n; j++ {
				if r.Intn(1+n/8) == 0 {
					initial = append(initial, j)
				}
			}
			if len(initial) == 0 {
				initial = []int{r.Intn(n)}
			}
			sweep(t, &q, n, initial, func(k int) []int {
				var out []int
				for c := r.Intn(4); c > 0 && k+1 < n; c-- {
					// Mostly near fill, sometimes a jump across words.
					span := 1 + r.Intn(8)
					if r.Intn(4) == 0 {
						span = 1 + r.Intn(n-k-1)
					}
					if j := k + span; j < n {
						out = append(out, j)
					}
				}
				return out
			})
		}
	}
}

// TestColQueueClear: a sweep abandoned mid-way leaves columns queued;
// checkEmpty trips on them and clear removes them.
func TestColQueueClear(t *testing.T) {
	var q colQueue
	q.resize(200)
	for _, j := range []int{3, 64, 130, 199} {
		q.push(j)
	}
	if got := q.pop(); got != 3 {
		t.Fatalf("popped %d, want 3", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("checkEmpty passed a queue holding three columns")
			}
		}()
		q.checkEmpty()
	}()
	q.clear()
	q.checkEmpty()
	q.push(70)
	if got := q.pop(); got != 70 {
		t.Fatalf("after clear: popped %d, want 70", got)
	}
	if got := q.pop(); got != -1 {
		t.Fatalf("after clear: queue yields %d, want empty", got)
	}
}
