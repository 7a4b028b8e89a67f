package noc

// pools holds the network's deterministic free-lists for flits and
// messages. They are plain LIFO slices, not sync.Pool: reuse order is then a
// pure function of simulation order, so pooled and unpooled runs produce
// bit-identical results and repeated runs reuse identically. One instance is
// owned by each Network; the simulator is single-goroutine per network
// (sweep workers each build their own), so no locking is needed.
//
// A network rebuilt in place keeps its free lists (Network.Init): they hold
// only zeroed objects nothing else points to, so which run allocated one
// is invisible, and a warm network allocates a flit or message only past
// the most that any run before it held at once.
//
// Lifetime rules (see DESIGN.md §4.10):
//   - A *Flit is born at NI injection and dies at the destination NI the
//     cycle its ejection is processed; routers and links may hold it in
//     between but never after the NI consumed it.
//   - A *Message is born at its producer (coherence layer, circuit probes,
//     tests) and dies when its consumer retires it via Network.FreeMessage.
//     Freeing is optional — an unfreed message is simply garbage-collected —
//     but a freed one must never be referenced again.
type pools struct {
	disabled bool

	flits []*Flit
	msgs  []*Message
}

func (p *pools) getFlit() *Flit {
	if n := len(p.flits); n > 0 {
		f := p.flits[n-1]
		p.flits[n-1] = nil
		p.flits = p.flits[:n-1]
		return f
	}
	return &Flit{}
}

func (p *pools) putFlit(f *Flit) {
	if p.disabled || f == nil {
		return
	}
	*f = Flit{}
	p.flits = append(p.flits, f)
}

func (p *pools) getMsg() *Message {
	if n := len(p.msgs); n > 0 {
		m := p.msgs[n-1]
		p.msgs[n-1] = nil
		p.msgs = p.msgs[:n-1]
		return m
	}
	return &Message{}
}

func (p *pools) putMsg(m *Message) {
	if p.disabled || m == nil {
		return
	}
	*m = Message{}
	p.msgs = append(p.msgs, m)
}

// NewMessage returns a zeroed message from the network's free-list (or the
// heap when pooling is disabled). Callers fill the fields they need; a
// recycled message is indistinguishable from a fresh one.
func (n *Network) NewMessage() *Message { return n.pool.getMsg() }

// FreeMessage retires m to the free-list. The caller asserts that no live
// reference to m remains anywhere — not in an NI queue, a router buffer, a
// controller transaction, or a circuit-layer map. With pooling disabled
// this is a no-op and m is left to the garbage collector.
func (n *Network) FreeMessage(m *Message) { n.pool.putMsg(m) }
