package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/pcomm"
)

// mailboxCap is the buffered-channel fast path depth of one mailbox.
// The SPMD codes in this repo keep at most a handful of messages in
// flight per processor pair, so the overflow queue is cold.
const mailboxCap = 256

// stashCap is the stash depth a mailbox starts with: a sender an exchange
// or two ahead leaves a handful of messages to take out together, and the
// steady-state guards would see the stash grow to that depth mid-run.
const stashCap = 8

// Message is one in-flight payload: boxed (Payload) or an unboxed slice
// header (Raw) from the SendRaw fast path. A transport that moves
// messages between processes decodes them back into this form before
// Deliver, so the consumer sees exactly what a co-located sender would
// have handed it.
type Message struct {
	Tag     int
	Payload any
	Raw     pcomm.RawSlice
	IsRaw   bool
}

// mailbox is the (src, dst) channel between one producer goroutine (the
// co-located sender or the transport's connection reader) and one
// consumer goroutine. put never blocks: when the channel is full it
// spills to the overflow queue. FIFO holds because the producer stops
// using the channel while spilled is set, and the consumer always drains
// the channel before the overflow.
type mailbox struct {
	ch      chan Message
	spilled atomic.Bool
	mu      sync.Mutex
	// over is the pooled spill buffer, held by pointer so returning it to
	// overflowPool re-uses the same header (no boxing on Put). nil when
	// nothing has spilled since the last drain.
	over *[]Message
	// sent counts the messages put, after each is in place; taken, on the
	// consumer's side, those drained. The consumer waits (Proc.Wait, on
	// bell) for sent to pass taken.
	sent  atomic.Int64
	taken int64
	bell  Bell
	// stash holds messages the consumer took out while looking for a
	// different tag, in arrival order. Consumer side only.
	stash []Message
}

// overflowPool recycles spill buffers across mailboxes and worlds. A
// sync.Pool, not a free list (DESIGN.md §13): spills are bursty — a
// phase that outruns the channel depth fills a buffer once, the consumer
// drains it, and the buffer may not be needed again for the rest of the
// run — so letting the GC reclaim idle buffers is the right policy, and
// (unlike the scratch pools) nothing here needs deterministic
// enumeration. Items are *[]Message so Put never boxes a fresh header.
var overflowPool = sync.Pool{New: func() any { return new([]Message) }}

// put delivers m; producer side only.
//
//pilut:hotpath
func (b *mailbox) put(m Message) {
	if !b.spilled.Load() {
		select {
		case b.ch <- m:
			b.sent.Add(1)
			b.bell.Ring()
			return
		default:
		}
	}
	b.mu.Lock()
	b.spilled.Store(true)
	if b.over == nil {
		b.over = overflowPool.Get().(*[]Message)
	}
	*b.over = append(*b.over, m) //pilutlint:ok hotalloc overflow spill path is cold; the buffer comes from overflowPool and grows to burst size once
	b.mu.Unlock()
	b.sent.Add(1)
	b.bell.Ring()
}

// Ready reports, to the consumer, that a drain would find something.
func (b *mailbox) Ready() bool { return b.sent.Load() > b.taken }

// drain moves every currently delivered message into the stash in
// arrival order; consumer side only (the dst goroutine).
//
//pilut:hotpath
func (b *mailbox) drain() {
	before := len(b.stash)
	for {
		select {
		case m := <-b.ch:
			b.stash = append(b.stash, m) //pilutlint:ok hotalloc stash grows to the peak out-of-order depth once, then is reused
			continue
		default:
		}
		break
	}
	if b.spilled.Load() {
		b.mu.Lock()
		ov := b.over
		b.over = nil
		b.spilled.Store(false)
		b.mu.Unlock()
		b.stash = append(b.stash, *ov...) //pilutlint:ok hotalloc stash grows to the peak out-of-order depth once, then is reused
		// Clear payload references before recycling the spill buffer so a
		// pooled buffer cannot pin delivered payloads, then hand it back.
		for i := range *ov {
			(*ov)[i] = Message{}
		}
		*ov = (*ov)[:0]
		overflowPool.Put(ov)
	}
	b.taken += int64(len(b.stash) - before)
}

// takeByTagFrom removes and returns the first stashed message with the
// tag, scanning from index from (earlier entries are known not to match
// from a previous scan).
func takeByTagFrom(stash *[]Message, tag, from int) (Message, bool) {
	s := *stash
	for i := from; i < len(s); i++ {
		if s[i].Tag == tag {
			m := s[i]
			*stash = append(s[:i], s[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}
