package sim

import "testing"

// Allocation pins for the engine hot path. The Post* family and AtArgPooled
// promise zero steady-state allocations (events are recycled through the
// engine free list); these pins keep that promise from regressing silently.
// AllocsPerRun warms the pool with a first run before measuring, so the
// one-time pool growth does not count.

func TestPostAllocationBudget(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	got := testing.AllocsPerRun(1000, func() {
		e.Post(10, fn)
		e.Step()
	})
	if got != 0 {
		t.Fatalf("Post+Step allocates %.1f objects/op, want 0", got)
	}
}

func TestPostArgAllocationBudget(t *testing.T) {
	e := NewEngine()
	type ctx struct{ n int }
	c := &ctx{}
	fn := func(a any) { a.(*ctx).n++ }
	got := testing.AllocsPerRun(1000, func() {
		e.PostArg(10, fn, c)
		e.Step()
	})
	if got != 0 {
		t.Fatalf("PostArg+Step allocates %.1f objects/op, want 0", got)
	}
	if c.n == 0 {
		t.Fatal("callback never ran")
	}
}

func TestAtArgPooledAllocationBudget(t *testing.T) {
	e := NewEngine()
	type ctx struct{ n int }
	c := &ctx{}
	fn := func(a any) { a.(*ctx).n++ }
	got := testing.AllocsPerRun(1000, func() {
		ev := e.AtArgPooled(e.Now()+10, fn, c)
		_ = ev.Pending()
		e.Step()
	})
	if got != 0 {
		t.Fatalf("AtArgPooled+Step allocates %.1f objects/op, want 0", got)
	}
}

func TestPostOrderingMatchesAfter(t *testing.T) {
	// Post must observe the same (at, seq) total order as After: mixing the
	// two at equal timestamps fires in schedule order.
	e := NewEngine()
	var order []int
	e.After(20, func() { order = append(order, 1) })
	e.Post(20, func() { order = append(order, 2) })
	e.PostAt(20, func() { order = append(order, 3) })
	e.Post(10, func() { order = append(order, 0) })
	e.Run()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPostArgDeliversArgument(t *testing.T) {
	e := NewEngine()
	type payload struct{ v int }
	p := &payload{v: 41}
	e.PostArg(5, func(a any) { a.(*payload).v++ }, p)
	e.Run()
	if p.v != 42 {
		t.Fatalf("arg callback saw %d, want 42", p.v)
	}
}

func TestAtArgPooledCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.AtArgPooled(10, func(any) { fired = true }, nil)
	e.Cancel(ev)
	ev = nil // holder discipline: drop the handle immediately after Cancel
	e.Run()
	if fired {
		t.Fatal("canceled pooled event fired")
	}
}

func TestPooledEventRecycledAfterFire(t *testing.T) {
	// A pooled event's storage must be reused, and the reuse must not let
	// the earlier (dropped) handle affect the later event.
	e := NewEngine()
	ev1 := e.AtArgPooled(10, func(any) {}, nil)
	e.Run()
	ev2 := e.AtArgPooled(20, func(any) {}, nil)
	if ev1 != ev2 {
		t.Fatal("pooled event storage was not recycled after firing")
	}
	n := 0
	e.PostArg(5, func(any) { n++ }, nil)
	e.Run()
	if n != 1 {
		t.Fatalf("recycled event fired %d times, want 1", n)
	}
}

func TestCanceledPooledEventRecycledEagerly(t *testing.T) {
	// Cancel takes a pooled event out of the queue at once and recycles its
	// storage: the next pooled schedule reuses it, and the canceled
	// callback never runs.
	e := NewEngine()
	fired := 0
	ev := e.AtArgPooled(10, func(any) { fired++ }, nil)
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Cancel, want 0", e.Pending())
	}
	n := 0
	if ev2 := e.AtArgPooled(20, func(any) { n++ }, nil); ev2 != ev {
		t.Fatal("canceled pooled event storage was not reused")
	}
	e.Run()
	if fired != 0 {
		t.Fatal("canceled event fired")
	}
	if n != 1 {
		t.Fatalf("reusing event fired %d times, want 1", n)
	}
}

func TestAtArgPooledCancelAllocationBudget(t *testing.T) {
	// The block-layer watchdog pattern: arm a pooled timeout, then cancel
	// it before it fires.
	e := NewEngine()
	fn := func(any) {}
	got := testing.AllocsPerRun(1000, func() {
		ev := e.AtArgPooled(e.Now()+10, fn, nil)
		e.Cancel(ev)
	})
	if got != 0 {
		t.Fatalf("AtArgPooled+Cancel allocates %.1f objects/op, want 0", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestHandleEventsNeverRecycled(t *testing.T) {
	// At/After handles may be retained forever; their storage must never
	// enter the pool, or a stale Cancel could kill an unrelated event.
	e := NewEngine()
	ev1 := e.After(10, func() {})
	e.Run()
	ev2 := e.After(10, func() {})
	if ev1 == ev2 {
		t.Fatal("handle event storage was recycled")
	}
	// Late cancel on the fired event must be harmless.
	e.Cancel(ev1)
	fired := false
	e.After(5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed a live event")
	}
}

func TestRunUntilPastCanceledRoot(t *testing.T) {
	// A canceled event past the deadline leaves the queue empty, so
	// RunUntil advances the clock to the deadline.
	e := NewEngine()
	ev := e.AtArgPooled(100, func(any) {}, nil)
	e.Cancel(ev)
	e.RunUntil(50)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0 (canceled root left the queue)", e.Pending())
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
}
