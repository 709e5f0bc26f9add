// Package route is the cluster routing tier above the per-node fleet
// stores: a versioned cluster map (node IDs, addresses, weights, an
// epoch) with deterministic rendezvous (highest-random-weight) serial →
// node placement, and a router that proxies the ingest/query API across
// the owning nodes (router.go) and live-migrates shard ownership
// between map versions (handoff.go).
//
// Placement is weighted rendezvous hashing: every (node, serial) pair
// hashes to a uniform score and the serial is owned by the node with the
// highest score. The scheme needs no coordination, no token ring and no
// stored assignment table — any process holding the same map computes
// the same owner — and it moves the provable minimum when the map
// changes: adding a node moves only the serials the new node wins
// (an expected weight-fraction of the keyspace), removing a node moves
// only the serials it owned. Unlike a hash ring there are no contiguous
// hash ranges; the unit of movement is the serial, so Diff enumerates
// exactly the serials that change owner between two map versions,
// grouped into per-(from,to) transfers.
package route

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Node is one ingest/query server in the cluster map.
type Node struct {
	// ID names the node; it is the stable identity rendezvous scores hash
	// over, so renaming a node reassigns its serials.
	ID string `json:"id"`
	// URL is the node's base URL (e.g. "http://10.0.0.1:8080").
	URL string `json:"url"`
	// Followers are warm-standby base URLs for the node (a replicated
	// pair's follower); the router's prober fails over to one when the
	// primary URL stops answering ready.
	Followers []string `json:"followers,omitempty"`
	// Weight scales the node's share of the keyspace; <= 0 means 1.
	Weight float64 `json:"weight,omitempty"`
}

// URLs returns the node's candidate base URLs, primary first.
func (n Node) URLs() []string {
	urls := make([]string, 0, 1+len(n.Followers))
	urls = append(urls, n.URL)
	urls = append(urls, n.Followers...)
	return urls
}

// weight returns the effective placement weight.
func (n Node) weight() float64 {
	if n.Weight <= 0 {
		return 1
	}
	return n.Weight
}

// Map is one version of the cluster layout. Maps are compared by Epoch:
// a router switches from map v to map v' only through the handoff
// protocol, which copies the moving serials to their new owners before
// the epoch flips.
type Map struct {
	Epoch uint64 `json:"epoch"`
	Nodes []Node `json:"nodes"`
}

// NewMap builds a validated map.
func NewMap(epoch uint64, nodes []Node) (*Map, error) {
	m := &Map{Epoch: epoch, Nodes: nodes}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the map invariants: at least one node, unique
// non-empty IDs, non-empty URLs, finite weights.
func (m *Map) Validate() error {
	if m == nil {
		return fmt.Errorf("route: nil cluster map")
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("route: cluster map epoch %d has no nodes", m.Epoch)
	}
	seen := make(map[string]bool, len(m.Nodes))
	for i, n := range m.Nodes {
		if n.ID == "" {
			return fmt.Errorf("route: node %d has no id", i)
		}
		if seen[n.ID] {
			return fmt.Errorf("route: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		if n.URL == "" {
			return fmt.Errorf("route: node %q has no url", n.ID)
		}
		if math.IsNaN(n.Weight) || math.IsInf(n.Weight, 0) {
			return fmt.Errorf("route: node %q has non-finite weight", n.ID)
		}
	}
	return nil
}

// Node returns the node with the given ID.
func (m *Map) Node(id string) (Node, bool) {
	for _, n := range m.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// LoadMap reads and validates a cluster map JSON file.
func LoadMap(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("route: reading cluster map: %w", err)
	}
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("route: parsing cluster map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("route: %s: %w", path, err)
	}
	return &m, nil
}

// WriteMap writes a cluster map as indented JSON.
func WriteMap(path string, m *Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("route: encoding cluster map: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// OwnerIndex returns the index into m.Nodes of the serial's owner. The
// serial is passed as bytes so the router's binary split path can route
// without allocating a string per record.
func (m *Map) OwnerIndex(serial []byte) int { return m.owner(serialHash(serial)) }

// Owner returns the node that owns a serial.
func (m *Map) Owner(serial string) Node { return m.Nodes[m.owner(serialHash(serial))] }

// OwnerID returns the owning node's ID.
func (m *Map) OwnerID(serial string) string { return m.Owner(serial).ID }

// owner returns the index of the node with the highest rendezvous score
// for a serial of hash hs (serialHash).
func (m *Map) owner(hs uint64) int {
	best, bestScore := 0, math.Inf(-1)
	for i, n := range m.Nodes {
		s := rendezvousScore(mix64(mix64(fnv1a(n.ID))^hs), n.weight())
		// Ties break by node ID so placement is total even if two nodes'
		// scores collide exactly.
		if s > bestScore || (s == bestScore && n.ID < m.Nodes[best].ID) {
			best, bestScore = i, s
		}
	}
	return best
}

// rendezvousScore is the weighted highest-random-weight score of a
// (node, serial) pair hashed to h: h maps to u uniform in (0, 1), and
// the score is -weight/ln(u) — the standard weighted-rendezvous
// transform, under which node i wins a serial with probability
// w_i / sum(w). With equal weights it reduces to plain HRW (the
// transform is monotone in the hash).
func rendezvousScore(h uint64, weight float64) float64 {
	// 53 high bits → u in (0, 1), never exactly 0 or 1.
	u := (float64(h>>11) + 0.5) / (1 << 53)
	return -weight / math.Log(u)
}

// serialHash is the serial's half of a (node, serial) pair hash, taken
// once per placement: the pair hashes to mix64(mix64(fnv1a(node ID)) ^
// serialHash(serial)). Node ID and serial are FNV-1a hashed and
// SplitMix64-finalized separately, then combined with a golden-ratio
// multiply and finalized again. FNV alone is too regular for rendezvous
// scoring (nearby serials produce nearby hashes, which skews per-node
// balance), and the two-sided finalize keeps the combination
// symmetric-collision-free — ("ab","c") and ("a","bc") hash differently
// by construction.
func serialHash[S string | []byte](serial S) uint64 {
	return mix64(fnv1a(serial)) * 0x9e3779b97f4a7c15
}

// fnv1a is the 64-bit FNV-1a hash of b.
func fnv1a[S string | []byte](b S) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// mix64 is the SplitMix64 finalizer (Stafford mix 13).
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Move is one serial changing owner between two map versions.
type Move struct {
	Serial string
	From   string // owning node ID under the old map
	To     string // owning node ID under the new map
}

// Diff returns the serials (of those enumerated) whose owner differs
// between two maps, sorted by serial. Rendezvous hashing has no
// contiguous hash ranges, so movement is enumerated per serial: the
// caller supplies the serial universe (in practice, each node's
// GET /v1/admin/serials listing).
func Diff(old, new *Map, serials []string) []Move {
	var moves []Move
	for _, s := range serials {
		hs := serialHash(s)
		from := old.Nodes[old.owner(hs)].ID
		to := new.Nodes[new.owner(hs)].ID
		if from != to {
			moves = append(moves, Move{Serial: s, From: from, To: to})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Serial < moves[j].Serial })
	return moves
}

// Transfer is the unit of a handoff: every moving serial that shares a
// (from, to) node pair, moved as one state image.
type Transfer struct {
	From, To string
	Serials  []string
}

// GroupMoves groups moves into per-(from,to) transfers, each with its
// serials sorted, transfers ordered by (from, to).
func GroupMoves(moves []Move) []Transfer {
	byPair := map[[2]string][]string{}
	for _, mv := range moves {
		k := [2]string{mv.From, mv.To}
		byPair[k] = append(byPair[k], mv.Serial)
	}
	out := make([]Transfer, 0, len(byPair))
	for k, serials := range byPair {
		sort.Strings(serials)
		out = append(out, Transfer{From: k[0], To: k[1], Serials: serials})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
