package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// scanKernel is the reference scheduler: one active flag per component and
// a scan over every entry each cycle. Kernel's bitmask walk must tick
// exactly the components this loop ticks, in the same order.
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

// schedule is one fuzzed component set. Every tick is appended to trace,
// and what a component does when it ticks depends only on the input, its
// index and the cycle, so two schedulers that tick the same components
// leave identical traces and identical work counts.
type schedule struct {
	data  []byte
	work  []int
	wake  func(i int)
	trace []string
}

// comp is component i of a schedule.
type comp struct {
	s *schedule
	i int
}

func (c comp) Quiescent() bool { return c.s.work[c.i] == 0 }

func (c comp) Tick(now Cycle) {
	s, n := c.s, len(c.s.work)
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
	case 2: // self-wake, with work or without
		hand(c.i, arg&1)
	case 3: // an earlier component: its slot has passed
		hand(c.i-1-arg%8, 1)
	case 4: // a later component, usually in the same word
		hand(c.i+1+arg%8, 1)
	case 5: // anywhere, possibly another word
		hand(arg*7%n, 1)
	case 6: // a later component, woken with no work: one no-op tick
		hand(c.i+1+arg%4, 0)
	case 7:
		s.work[c.i] += arg & 3
	}
}

// kernelSizes straddle the 64-component word boundary.
var kernelSizes = [...]int{63, 64, 65, 130}

// runSchedule builds the schedule data describes and runs it for a few
// dozen cycles on the real kernel (or, with ref, on the scan reference),
// waking a few components from outside between steps. It returns the tick
// trace and the active count seen after each step.
func runSchedule(data []byte, ref bool) ([]string, []int) {
	n := kernelSizes[int(data[0])%len(kernelSizes)]
	dense := data[1]&1 == 1
	s := &schedule{data: data, work: make([]int, n)}
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
		step = k.Step
		active = k.ActiveCount
	}
	var counts []int
	for cyc := 0; cyc < 48; cyc++ {
		if b := data[(cyc*5+3)%len(data)]; b&3 == 0 {
			t := int(b>>2) * 3 % n
			s.work[t]++
			s.wake(t)
		}
		step()
		counts = append(counts, active())
	}
	s.trace = append(s.trace, fmt.Sprint(s.work))
	return s.trace, counts
}

// FuzzKernelSchedule holds the bitmask kernel to the scan reference over
// random component sets: self-wakes, wakes of earlier and later components
// during Step, wakes from outside between steps, and dense mode.
func FuzzKernelSchedule(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add([]byte{byte(i), byte(i >> 2), 0x2c, 0x94, 0x13, 0xfb, 0x44, 0x7a, 0x65, 0x0e, 0xc3})
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
			t.Fatalf("tick trace diverges from the scan kernel at entry %d:\n got %v\nwant %v",
				i, gotTrace[i:min(i+8, len(gotTrace))], wantTrace[i:min(i+8, len(wantTrace))])
		}
		if !reflect.DeepEqual(gotActive, wantActive) {
			t.Fatalf("active counts %v, scan kernel %v", gotActive, wantActive)
		}
	})
}
