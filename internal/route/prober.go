package route

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"disksig/internal/wire"
)

// NodeHealth is one node's probed state: which of its URLs answers
// ready, what role it claims, and how far behind it says it is.
type NodeHealth struct {
	ID string `json:"id"`
	// Active is the base URL the router currently forwards to: the
	// node's primary URL, or a ready follower when the primary is down.
	Active string `json:"active"`
	// Ready is whether Active answered /healthz/ready with 200.
	Ready bool   `json:"ready"`
	Role  string `json:"role,omitempty"`
	// LagMs and ReadyLagMs echo a follower's reported replication lag
	// and the gate it is judged against.
	LagMs      float64 `json:"lag_ms,omitempty"`
	ReadyLagMs float64 `json:"ready_lag_ms,omitempty"`
	LastError  string  `json:"last_error,omitempty"`
}

// prober tracks per-node health by polling every candidate URL's
// /healthz/ready. It prefers a URL that is both ready and writable
// (role primary or standalone) — during a pair's failover the deposed
// primary stops being ready and the promoted follower takes over as the
// node's active URL — falling back to any ready URL, then to the
// configured primary.
type prober struct {
	client *http.Client
	every  time.Duration

	mu    sync.Mutex
	nodes map[string]Node       // by node ID; the URL candidates
	state map[string]NodeHealth // by node ID; latest probe result

	stop chan struct{}
	done chan struct{}
}

func newProber(client *http.Client, every time.Duration) *prober {
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	return &prober{
		client: client,
		every:  every,
		nodes:  map[string]Node{},
		state:  map[string]NodeHealth{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// setNodes replaces the probed node set (the union of the current and
// next maps during a migration). Unknown nodes start pessimistic —
// Ready: false, so they are not forwarding targets — and are probed
// synchronously before setNodes returns: a node joining mid-rebalance
// may still be bootstrapping (replaying a snapshot, warming models),
// and the old optimistic default let the router forward batches into
// its startup window. Known nodes keep their latest probe result.
func (p *prober) setNodes(nodes []Node) {
	p.mu.Lock()
	next := make(map[string]Node, len(nodes))
	var unknown []Node
	for _, n := range nodes {
		next[n.ID] = n
		if _, ok := p.state[n.ID]; !ok {
			p.state[n.ID] = NodeHealth{ID: n.ID, Active: n.URL}
			unknown = append(unknown, n)
		}
	}
	for id := range p.state {
		if _, ok := next[id]; !ok {
			delete(p.state, id)
		}
	}
	p.nodes = next
	p.mu.Unlock()
	// Probe outside the lock: a slow node must not freeze health reads.
	for _, n := range unknown {
		h := p.probeNode(n)
		p.mu.Lock()
		if _, ok := p.nodes[n.ID]; ok {
			p.state[n.ID] = h
		}
		p.mu.Unlock()
	}
}

// run polls until stop closes.
func (p *prober) run() {
	defer close(p.done)
	t := time.NewTicker(p.every)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

func (p *prober) close() {
	close(p.stop)
	<-p.done
}

// probeAll probes every node once. Exported through ForceProbe for
// startup and tests; the loop calls it on its ticker.
func (p *prober) probeAll() {
	p.mu.Lock()
	nodes := make([]Node, 0, len(p.nodes))
	for _, n := range p.nodes {
		nodes = append(nodes, n)
	}
	p.mu.Unlock()
	for _, n := range nodes {
		h := p.probeNode(n)
		p.mu.Lock()
		if _, ok := p.nodes[n.ID]; ok {
			p.state[n.ID] = h
		}
		p.mu.Unlock()
	}
}

// probeNode tries the node's URLs in order (primary first, then
// followers) and picks the best ready one: writable beats merely-ready,
// earlier beats later.
func (p *prober) probeNode(n Node) NodeHealth {
	h := NodeHealth{ID: n.ID, Active: n.URL}
	var fallback string // first URL that was ready but not writable
	for _, u := range n.URLs() {
		doc, err := p.probeURL(u)
		if err != nil {
			if h.LastError == "" {
				h.LastError = err.Error()
			}
			continue
		}
		if doc.Role == "primary" || doc.Role == "standalone" || doc.Role == "" {
			h.Active, h.Ready, h.Role = u, true, doc.Role
			h.LagMs, h.ReadyLagMs = doc.LagMs, doc.ReadyLagMs
			h.LastError = ""
			return h
		}
		if fallback == "" {
			fallback = u
			h.Role, h.LagMs, h.ReadyLagMs = doc.Role, doc.LagMs, doc.ReadyLagMs
		}
	}
	if fallback != "" {
		h.Active, h.Ready, h.LastError = fallback, true, ""
	}
	return h
}

func (p *prober) probeURL(u string) (wire.Ready, error) {
	var doc wire.Ready
	resp, err := p.client.Get(u + "/healthz/ready")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = json.Unmarshal(body, &doc)
	if resp.StatusCode != http.StatusOK {
		return doc, &probeNotReady{status: resp.StatusCode}
	}
	return doc, nil
}

type probeNotReady struct{ status int }

func (e *probeNotReady) Error() string {
	return http.StatusText(e.status) + " from ready probe"
}

// health returns the latest probe result for a node ID.
func (p *prober) health(id string) (NodeHealth, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.state[id]
	return h, ok
}

// activeURL returns the base URL to forward to for a node. An unknown
// node (should not happen: setNodes covers both maps) falls back to the
// map's primary URL via the caller.
func (p *prober) activeURL(n Node) string {
	if h, ok := p.health(n.ID); ok && h.Active != "" {
		return h.Active
	}
	return n.URL
}

// candidates returns the forward-order URL list for a node: the active
// URL first, then the remaining configured URLs.
func (p *prober) candidates(n Node) []string {
	active := p.activeURL(n)
	urls := make([]string, 0, 1+len(n.Followers))
	urls = append(urls, active)
	for _, u := range n.URLs() {
		if u != active {
			urls = append(urls, u)
		}
	}
	return urls
}
