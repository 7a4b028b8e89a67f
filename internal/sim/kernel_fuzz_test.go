package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// scanKernel is the reference scheduler: one active flag per component and
// a scan over every entry each cycle, with no wheel. Kernel's bitmask walk
// must do exactly the work this loop does, in the same order: a sleeper is
// not quiescent, so the scan ticks it every cycle, and its early ticks are
// no-ops.
type scanKernel struct {
	now    Cycle
	comps  []Component
	active []bool
	dense  bool
}

func (k *scanKernel) step() {
	for i, c := range k.comps {
		if !k.active[i] && !k.dense {
			continue
		}
		c.Tick(k.now)
		k.active[i] = !c.Quiescent()
	}
	k.now++
}

// schedule is one fuzzed component set. Every tick that works is appended
// to trace, and what a component does when it ticks depends only on the
// input, its index and the cycle, so two schedulers that tick the same
// components in every cycle they work leave identical traces.
type schedule struct {
	data []byte
	work []int
	// due is a sleeper's wake cycle, 0 while it is awake: it works in no
	// tick before due.
	due    []Cycle
	wake   func(i int)
	wakeAt func(i int, at Cycle)
	sleep  func(i int, at Cycle)
	trace  []string
}

// comp is component i of a schedule.
type comp struct {
	s *schedule
	i int
}

func (c comp) Quiescent() bool { return c.s.work[c.i] == 0 && c.s.due[c.i] == 0 }

// sleeps are the spans a component sleeps for: none (it asks to sleep
// until the current cycle), short, and at, just past and far past the
// wheel's reach.
var sleeps = [...]Cycle{0, 1, 2, 5, wheelSlots - 1, wheelSlots, wheelSlots + 1, 3*wheelSlots + 7}

// Tick works when the component has work or its sleep has run out. By
// the quiescence contract a quiescent component's tick does nothing: the
// sparse kernel ticks one when a stale wheel slot comes round.
func (c comp) Tick(now Cycle) {
	s, n := c.s, len(c.s.work)
	if c.Quiescent() {
		return
	}
	if at := s.due[c.i]; at > now {
		s.sleep(c.i, at) // woken early, by the wheel's reach or a peer
		return
	}
	s.due[c.i] = 0
	s.trace = append(s.trace, fmt.Sprintf("%d:%d", now, c.i))
	if s.work[c.i] > 0 {
		s.work[c.i]--
	}
	b := int(s.data[(c.i*131+int(now)*17)%len(s.data)])
	arg := b >> 3
	hand := func(t, units int) {
		if t >= 0 && t < n {
			s.work[t] += units
			s.wake(t)
		}
	}
	switch b & 7 {
	case 0: // work for anyone, due after a span: it is woken then, not now
		t, d := arg*5%n, sleeps[(arg>>2)%len(sleeps)]
		s.work[t]++
		if at := now + d; d > 0 && (s.due[t] == 0 || at < s.due[t]) {
			s.due[t] = at
		}
		s.wakeAt(t, now+d)
	case 1: // sleep, with work or without; a span of 0 asks for this cycle, so the next
		if d := sleeps[arg%len(sleeps)]; d > 0 {
			s.due[c.i] = now + d
		}
		s.sleep(c.i, now+sleeps[arg%len(sleeps)])
	case 2: // self-wake, with work or without
		hand(c.i, arg&1)
	case 3: // an earlier component: its slot has passed
		hand(c.i-1-arg%8, 1)
	case 4: // a later component, usually in the same word
		hand(c.i+1+arg%8, 1)
	case 5: // anywhere, possibly another word
		hand(arg*7%n, 1)
	case 6: // a later component, woken with no work: a no-op tick, or an early one
		hand(c.i+1+arg%4, 0)
	case 7:
		s.work[c.i] += arg & 3
	}
}

// kernelSizes straddle the 64-component word boundary.
var kernelSizes = [...]int{63, 64, 65, 130}

// runSchedule builds the schedule data describes and runs it for a few
// wheel turns on the real kernel (or, with ref, on the scan reference),
// waking a few components from outside between steps. It returns the work
// trace and the active count seen after each step.
func runSchedule(data []byte, ref bool) ([]string, []int) {
	n := kernelSizes[int(data[0])%len(kernelSizes)]
	dense := data[1]&1 == 1
	s := &schedule{data: data, work: make([]int, n), due: make([]Cycle, n)}
	for i := range s.work {
		s.work[i] = int(data[(i+2)%len(data)]>>6) & 1
	}
	var step func()
	var active func() int
	if ref {
		k := &scanKernel{dense: dense, active: make([]bool, n)}
		for i := 0; i < n; i++ {
			k.comps = append(k.comps, comp{s, i})
			k.active[i] = true
		}
		s.wake = func(i int) { k.active[i] = true }
		s.wakeAt = func(i int, _ Cycle) { k.active[i] = true }
		s.sleep = func(int, Cycle) {}
		step = k.step
		active = func() int {
			c := 0
			for _, a := range k.active {
				if a {
					c++
				}
			}
			return c
		}
	} else {
		k := NewKernel()
		k.SetDense(dense)
		var wakers []Waker
		for i := 0; i < n; i++ {
			wakers = append(wakers, k.Add(comp{s, i}))
		}
		s.wake = func(i int) { wakers[i].Wake() }
		s.wakeAt = func(i int, at Cycle) { wakers[i].WakeAt(at) }
		s.sleep = func(i int, at Cycle) { wakers[i].SleepUntil(at) }
		step = k.Step
		active = k.ActiveCount
	}
	var counts []int
	for cyc := 0; cyc < 6*wheelSlots; cyc++ {
		if b := data[(cyc*5+3)%len(data)]; b&3 == 0 {
			t := int(b>>2) * 3 % n
			s.work[t]++
			s.wake(t)
		}
		step()
		counts = append(counts, active())
	}
	s.trace = append(s.trace, fmt.Sprint(s.work, s.due))
	return s.trace, counts
}

// FuzzKernelSchedule holds the bitmask kernel to the scan reference over
// random component sets: self-wakes, wakes of earlier and later components
// during Step, timed wakes (WakeAt) of work not due yet, wakes from outside
// between steps, sleeps short of, at and
// past the wheel's reach (and sleepers woken early by peers), and dense
// mode.
func FuzzKernelSchedule(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add([]byte{byte(i), byte(i >> 2), 0x2c, 0x94, 0x13, 0xfb, 0x44, 0x7a, 0x65, 0x0e, 0xc3})
	}
	for i := 0; i < 8; i++ { // mostly sleeps (b&7 == 1), across every span
		f.Add([]byte{byte(i), byte(i >> 2), 0x09, 0x11, 0x19, 0x21, 0x29, 0x31, 0x39, 0x41, 0x0c, 0x6d})
	}
	for i := 0; i < 8; i++ { // mostly timed hand-offs (b&7 == 0), across every span
		f.Add([]byte{byte(i), byte(i >> 2), 0x08, 0x28, 0x48, 0x68, 0x88, 0xa8, 0xc8, 0xe8, 0x10, 0x31})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		wantTrace, wantActive := runSchedule(data, true)
		gotTrace, gotActive := runSchedule(data, false)
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			i := 0
			for i < len(gotTrace) && i < len(wantTrace) && gotTrace[i] == wantTrace[i] {
				i++
			}
			t.Fatalf("work trace diverges from the scan kernel at entry %d:\n got %v\nwant %v",
				i, gotTrace[i:min(i+8, len(gotTrace))], wantTrace[i:min(i+8, len(wantTrace))])
		}
		// The sparse kernel's active set is the scan's less the sleepers,
		// which the scan, with no wheel, counts as awake.
		for i := range wantActive {
			if gotActive[i] > wantActive[i] || data[1]&1 == 1 && gotActive[i] != wantActive[i] {
				t.Fatalf("after step %d: %d components awake, scan kernel %d (dense=%v)",
					i, gotActive[i], wantActive[i], data[1]&1 == 1)
			}
		}
	})
}
