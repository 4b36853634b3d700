package cplane

// InFlight returns the router's in-flight claim count per member address.
func (r *Router) InFlight() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.routes))
	for addr, rt := range r.routes {
		out[addr] = rt.inflight
	}
	return out
}

// PickNode runs one pick for kernel, gives its claim back, and returns
// the chosen member's name, or "" when no member qualifies.
func (r *Router) PickNode(kernel string) string {
	m, rt := r.pick("", kernel, kindOf(kernel), nil)
	if rt == nil {
		return ""
	}
	r.release(rt)
	return m.Node
}

// Waiting reports whether a WaitMembers call is waiting for the next
// publish of the view.
func (n *Node) Waiting() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.published != nil
}
