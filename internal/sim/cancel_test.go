package sim

import (
	"testing"
	"testing/quick"
)

// refEvent is one event of the sorted-slice reference queue.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the reference model of the engine queue: a slice kept in
// (at, seq) order, where removal is a linear search.
type refQueue []refEvent

func (q *refQueue) push(ev refEvent) {
	i := len(*q)
	for i > 0 && ((*q)[i-1].at > ev.at || (*q)[i-1].at == ev.at && (*q)[i-1].seq > ev.seq) {
		i--
	}
	*q = append(*q, refEvent{})
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = ev
}

func (q *refQueue) remove(id int) {
	for i, ev := range *q {
		if ev.id == id {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// checkHeap verifies the 4-ary heap invariant and the back-indices.
func checkHeap(e *Engine) bool {
	for i, ev := range e.queue {
		if ev.idx != i {
			return false
		}
		if i > 0 && less(ev, e.queue[(i-1)>>2]) {
			return false
		}
	}
	return true
}

// TestEngineCancelMatchesReference drives random Post/AtArgPooled/At/Cancel/
// Step sequences and checks the engine against a sorted-slice reference:
// fire order, Pending() after every step and the heap invariant. Cancel
// targets the root, the last heap slot or a random live handle; it also
// re-cancels a just-canceled pooled handle and cancels fired At handles.
func TestEngineCancelMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		e := NewEngine()
		var ref refQueue
		var seq uint64
		var fired []int
		live := map[int]*Event{} // cancelable handles still in the queue
		var firedAt []*Event     // At handles that have fired
		pooled := map[int]bool{}
		nextID := 0
		onFire := func(a any) {
			id := a.(int)
			fired = append(fired, id)
			if ev := live[id]; ev != nil && !pooled[id] {
				firedAt = append(firedAt, ev)
			}
			delete(live, id)
		}
		schedule := func(at Time) refEvent {
			if at < e.Now() {
				at = e.Now()
			}
			ev := refEvent{at: at, seq: seq, id: nextID}
			seq++
			nextID++
			return ev
		}
		cancel := func(id int) {
			ev := live[id]
			e.Cancel(ev)
			if pooled[id] && r.Intn(2) == 0 {
				e.Cancel(ev) // double cancel while the storage is free-listed
			}
			ref.remove(id)
			delete(live, id)
		}
		for step := 0; step < 400; step++ {
			at := e.Now() + Time(r.Intn(50)) - 5
			switch op := r.Intn(10); {
			case op < 2:
				ev := schedule(e.Now() + Time(r.Intn(50)))
				e.PostArg(ev.at-e.Now(), onFire, ev.id)
				ref.push(ev)
			case op < 4:
				ev := schedule(at)
				h := e.AtArgPooled(at, onFire, ev.id)
				live[ev.id], pooled[ev.id] = h, true
				ref.push(ev)
			case op < 5:
				ev := schedule(at)
				id := ev.id
				h := e.At(at, func() { onFire(id) })
				live[id] = h
				ref.push(ev)
			case op < 7:
				if len(e.queue) == 0 {
					break
				}
				// Root, last slot, or any live handle.
				var target *Event
				switch r.Intn(3) {
				case 0:
					target = e.queue[0]
				case 1:
					target = e.queue[len(e.queue)-1]
				default:
					target = e.queue[r.Intn(len(e.queue))]
				}
				for id, h := range live {
					if h == target {
						cancel(id)
						break
					}
				}
			case op < 8:
				if len(firedAt) > 0 {
					// Stale cancel of a fired handle: a no-op.
					e.Cancel(firedAt[r.Intn(len(firedAt))])
				}
			default:
				if len(ref) == 0 {
					if e.Step() {
						return false
					}
					break
				}
				want := ref[0]
				ref = ref[1:]
				n := len(fired)
				if !e.Step() || len(fired) != n+1 || fired[n] != want.id || e.Now() != want.at {
					return false
				}
			}
			if e.Pending() != len(ref) || !checkHeap(e) {
				return false
			}
		}
		for len(ref) > 0 {
			want := ref[0]
			ref = ref[1:]
			n := len(fired)
			if !e.Step() || len(fired) != n+1 || fired[n] != want.id || e.Pending() != len(ref) || !checkHeap(e) {
				return false
			}
		}
		return !e.Step()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
