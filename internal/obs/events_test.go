package obs

import (
	"sync"
	"testing"
	"time"
)

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus(16, nil)
	sub := b.Subscribe(0, 8)
	defer sub.Cancel()
	b.Publish(Event{Type: EventSubmitted, JobID: "job-1"})
	b.Publish(Event{Type: EventDone, JobID: "job-1"})
	ev1 := <-sub.C
	ev2 := <-sub.C
	if ev1.Type != EventSubmitted || ev2.Type != EventDone {
		t.Errorf("got %q then %q", ev1.Type, ev2.Type)
	}
	if ev1.Seq != 1 || ev2.Seq != 2 {
		t.Errorf("seqs = %d, %d, want 1, 2", ev1.Seq, ev2.Seq)
	}
	if ev1.Time.IsZero() {
		t.Error("event not time-stamped")
	}
}

func TestBusRingReplayForLateSubscribers(t *testing.T) {
	b := NewBus(4, nil)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: EventDone, JobID: "job"})
	}
	// Ring holds the last 4 events: seqs 7..10.
	sub := b.Subscribe(0, 16)
	defer sub.Cancel()
	var seqs []uint64
	for i := 0; i < 4; i++ {
		seqs = append(seqs, (<-sub.C).Seq)
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if seqs[i] != want {
			t.Fatalf("replayed seqs = %v, want [7 8 9 10]", seqs)
		}
	}
	// afterSeq skips already-seen history.
	sub2 := b.Subscribe(9, 16)
	defer sub2.Cancel()
	if got := (<-sub2.C).Seq; got != 10 {
		t.Errorf("afterSeq=9 first event seq = %d, want 10", got)
	}
	select {
	case ev := <-sub2.C:
		t.Errorf("unexpected extra replayed event %+v", ev)
	default:
	}
}

// TestBusReplayAfterWrap: once the ring has wrapped (more than once, and
// at an offset that is not a multiple of its size), afterSeq replay still
// returns exactly the retained events newer than afterSeq, oldest first,
// and live events follow the replay.
func TestBusReplayAfterWrap(t *testing.T) {
	for _, tc := range []struct {
		after uint64
		want  []uint64
	}{
		{0, []uint64{8, 9, 10, 11}},
		{5, []uint64{8, 9, 10, 11}}, // older than the ring: all of it
		{8, []uint64{9, 10, 11}},
		{10, []uint64{11}},
		{11, nil},
		{99, nil}, // ahead of the bus: nothing to replay
	} {
		b := NewBus(4, nil)
		for i := 0; i < 11; i++ {
			b.Publish(Event{Type: EventDone, JobID: "job"})
		}
		sub := b.Subscribe(tc.after, 1)
		var got []uint64
		for range tc.want {
			got = append(got, (<-sub.C).Seq)
		}
		b.Publish(Event{Type: EventDone, JobID: "live"})
		if live := <-sub.C; live.Seq != 12 {
			t.Fatalf("afterSeq=%d: after the replay got %+v, want the live seq 12", tc.after, live)
		}
		sub.Cancel()
		if len(got) != len(tc.want) {
			t.Fatalf("afterSeq=%d: replayed %v, want %v", tc.after, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("afterSeq=%d: replayed %v, want %v", tc.after, got, tc.want)
			}
		}
	}
}

func TestBusSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus(16, nil)
	sub := b.Subscribe(0, 2)
	defer sub.Cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			b.Publish(Event{Type: EventDone})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	if sub.Dropped() != 48 {
		t.Errorf("dropped = %d, want 48 (buffer 2 of 50)", sub.Dropped())
	}
}

func TestBusCloseEndsStreams(t *testing.T) {
	b := NewBus(16, nil)
	sub := b.Subscribe(0, 8)
	b.Publish(Event{Type: EventDone})
	b.Close()
	b.Close() // idempotent
	var got []Event
	for ev := range sub.C {
		got = append(got, ev)
	}
	if len(got) != 1 {
		t.Errorf("events before close = %d, want 1", len(got))
	}
	// Publishing after close is a silent no-op; Cancel after close too.
	b.Publish(Event{Type: EventDone})
	sub.Cancel()
	// Subscribing to a closed bus yields a closed (but replayed) channel.
	sub2 := b.Subscribe(0, 8)
	n := 0
	for range sub2.C {
		n++
	}
	if n != 1 {
		t.Errorf("closed-bus replay = %d events, want 1", n)
	}
}

func TestBusConcurrentPublishOrdered(t *testing.T) {
	b := NewBus(4096, nil)
	sub := b.Subscribe(0, 4096)
	var wg sync.WaitGroup
	const publishers, each = 8, 100
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Publish(Event{Type: EventDone})
			}
		}()
	}
	wg.Wait()
	b.Close()
	var last uint64
	n := 0
	for ev := range sub.C {
		if ev.Seq <= last {
			t.Fatalf("sequence not strictly increasing: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		n++
	}
	if n != publishers*each {
		t.Errorf("delivered = %d, want %d", n, publishers*each)
	}
}

func TestCollectorSamples(t *testing.T) {
	snap := SampleRuntime()
	if snap.Goroutines <= 0 {
		t.Errorf("goroutines = %d", snap.Goroutines)
	}
	if snap.HeapBytes == 0 {
		t.Error("heap bytes = 0")
	}
}
