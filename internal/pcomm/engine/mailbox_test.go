package engine

import "testing"

func newMailbox() *mailbox {
	b := &mailbox{ch: make(chan Message, mailboxCap)}
	b.bell.Init()
	return b
}

// A burst beyond the channel depth spills to the overflow queue; draining
// must still return everything in send order, including messages put
// after the spill began, and leave the mailbox back on its fast path.
func TestMailboxSpillKeepsFIFO(t *testing.T) {
	b := newMailbox()
	const n = 3*mailboxCap + 17
	for i := 0; i < n; i++ {
		b.put(Message{Tag: 1, Payload: i})
	}
	if !b.spilled.Load() {
		t.Fatalf("%d puts into a %d-deep mailbox did not spill", n, mailboxCap)
	}
	if !b.Ready() {
		t.Error("a consumer would not see the spilled messages")
	}
	b.drain()
	stash := b.stash
	if len(stash) != n {
		t.Fatalf("drained %d messages, want %d", len(stash), n)
	}
	if b.Ready() {
		t.Error("the mailbox still reads ready after a full drain")
	}
	for i, m := range stash {
		if m.Payload.(int) != i {
			t.Fatalf("message %d drained at position %d", m.Payload, i)
		}
	}
	if b.spilled.Load() || b.over != nil {
		t.Error("drain left the mailbox spilled")
	}
	b.put(Message{Tag: 1, Payload: n})
	if len(b.ch) != 1 || !b.Ready() {
		t.Error("put after a drain did not return to the channel fast path")
	}
}

// takeByTagFrom must skip the prefix a previous scan already rejected,
// take the first match at or after from, and keep the rest in order.
func TestTakeByTagResumesAtFrom(t *testing.T) {
	stash := []Message{{Tag: 7, Payload: "old"}, {Tag: 1}, {Tag: 7, Payload: "new"}, {Tag: 2}}
	m, ok := takeByTagFrom(&stash, 7, 1)
	if !ok || m.Payload != "new" {
		t.Fatalf("scan from 1 took %v (ok=%v), want the tag-7 message past the prefix", m.Payload, ok)
	}
	if _, ok := takeByTagFrom(&stash, 9, 0); ok {
		t.Error("matched a tag that is not stashed")
	}
	if m, ok := takeByTagFrom(&stash, 7, 0); !ok || m.Payload != "old" {
		t.Errorf("scan from 0 took %v (ok=%v), want the earlier tag-7 message", m.Payload, ok)
	}
	if len(stash) != 2 || stash[0].Tag != 1 || stash[1].Tag != 2 {
		t.Errorf("remaining stash = %+v, want tags 1, 2 in order", stash)
	}
}
