package noc

// ring is a growable power-of-two circular FIFO. The hot-path queues of the
// network (bypass latches, link pipelines, NI injection queues) all pop
// from the head, which with a plain slice (`q = q[1:]`) both grows
// the backing array without bound and keeps every popped element reachable.
// A ring reuses its slots, zeroes a slot on pop so popped pointers become
// collectable, and — once warm — never allocates again.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) grow(min int) {
	c := len(r.buf) * 2
	if c < 8 {
		c = 8
	}
	for c < min {
		c *= 2
	}
	nb := make([]T, c)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// emptied returns an empty ring on r's slots, zeroed: a rebuilt network's
// queues keep the capacity their last run grew them to.
func (r *ring[T]) emptied() ring[T] {
	clear(r.buf)
	return ring[T]{buf: r.buf}
}

// Len returns the number of queued elements.
func (r *ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow(r.n + 1)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront prepends v at the head (setup probes overtake the NI queue).
func (r *ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow(r.n + 1)
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// Front returns the head element without removing it; the caller must have
// checked Len. For pointer element types an empty ring returns nil instead.
func (r *ring[T]) Front() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	return r.buf[r.head]
}

// Pop removes and returns the head element, zeroing its slot so the ring
// does not pin popped pointers. Popping an empty ring returns the zero
// value and leaves the ring empty — every hot-path caller checks Len
// first, so the guard costs one predictable branch and turns a would-be
// state corruption (n going negative) into a harmless no-op.
func (r *ring[T]) Pop() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// At returns the i-th element from the head (0 = front).
func (r *ring[T]) At(i int) T {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// RemoveAt removes and returns the i-th element, shifting later elements
// forward (queue-overtake picks from the first few slots, so the shift is
// short in practice).
func (r *ring[T]) RemoveAt(i int) T {
	if i == 0 {
		return r.Pop()
	}
	mask := len(r.buf) - 1
	v := r.buf[(r.head+i)&mask]
	for j := i; j < r.n-1; j++ {
		r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
	}
	var zero T
	r.buf[(r.head+r.n-1)&mask] = zero
	r.n--
	return v
}
