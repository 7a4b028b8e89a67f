package trace

import (
	"strings"
	"testing"
)

func TestNilBufferIsNoOp(t *testing.T) {
	var b *Buffer
	b.Record(1, Enqueue, 1, 0, "x") // must not panic
	if b.Len() != 0 || b.Total() != 0 || b.Events() != nil {
		t.Fatal("nil buffer should be empty")
	}
}

func TestRecordAndOrder(t *testing.T) {
	b := New(8)
	b.Record(1, Enqueue, 7, 0, "a")
	b.Record(2, Inject, 7, 0, "b")
	b.Record(5, Deliver, 7, 3, "c")
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events", len(evs))
	}
	if evs[0].Kind != Enqueue || evs[2].Kind != Deliver {
		t.Fatal("order lost")
	}
	if b.Total() != 3 {
		t.Fatalf("total %d", b.Total())
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	b := New(4)
	for i := 1; i <= 10; i++ {
		b.Record(int64(i), Enqueue, uint64(i), 0, "")
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("%d retained, want 4", len(evs))
	}
	if evs[0].Msg != 7 || evs[3].Msg != 10 {
		t.Fatalf("wrong window: %v..%v", evs[0].Msg, evs[3].Msg)
	}
	if b.Total() != 10 {
		t.Fatalf("total %d", b.Total())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Enqueue; k <= AckEliminated; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	b := New(0)
	for i := 0; i < 2000; i++ {
		b.Record(int64(i), Inject, uint64(i), 0, "")
	}
	if b.Len() != 1024 {
		t.Fatalf("default capacity: %d", b.Len())
	}
}

func TestStringRendersAllEvents(t *testing.T) {
	b := New(4)
	b.Record(1, Enqueue, 1, 2, "note-here")
	s := b.String()
	if !strings.Contains(s, "enqueue") || !strings.Contains(s, "note-here") {
		t.Fatalf("render: %q", s)
	}
}
