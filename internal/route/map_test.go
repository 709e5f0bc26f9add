package route

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

func testNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID:  fmt.Sprintf("node-%d", i),
			URL: fmt.Sprintf("http://10.0.0.%d:8080", i+1),
		}
	}
	return nodes
}

func testSerials(n int) []string {
	serials := make([]string, n)
	for i := range serials {
		serials[i] = fmt.Sprintf("ld-%06d", i)
	}
	return serials
}

func mustMap(t *testing.T, epoch uint64, nodes []Node) *Map {
	t.Helper()
	m, err := NewMap(epoch, nodes)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	return m
}

// Placement must be a pure function of (map, serial): two independently
// constructed maps with the same nodes assign every serial identically,
// and the string and byte entry points agree.
func TestOwnerDeterministic(t *testing.T) {
	a := mustMap(t, 1, testNodes(5))
	b := mustMap(t, 99, testNodes(5)) // epoch must not affect placement
	for _, s := range testSerials(1000) {
		ia, ib := a.OwnerIndex([]byte(s)), b.OwnerIndex([]byte(s))
		if ia != ib {
			t.Fatalf("serial %s: owner %d under epoch 1, %d under epoch 99", s, ia, ib)
		}
		if got := a.Owner(s).ID; got != a.Nodes[ia].ID {
			t.Fatalf("serial %s: Owner %s != OwnerIndex %s", s, got, a.Nodes[ia].ID)
		}
	}
}

// 1k serials over 5 equal-weight nodes must land within ±10% of the
// 200-per-node ideal. The workload is deterministic, so this pins the
// concrete hash quality rather than sampling it.
func TestBalanceWithinTenPercent(t *testing.T) {
	m := mustMap(t, 1, testNodes(5))
	counts := make([]int, len(m.Nodes))
	for _, s := range testSerials(1000) {
		counts[m.OwnerIndex([]byte(s))]++
	}
	for i, c := range counts {
		if c < 180 || c > 220 {
			t.Errorf("node %s owns %d serials, outside [180, 220] (counts %v)", m.Nodes[i].ID, c, counts)
		}
	}
}

// Adding a node must move only serials that the new node wins — nothing
// reshuffles between surviving nodes — and roughly 1/N of the keyspace.
func TestMinimalMovementOnJoin(t *testing.T) {
	const nSerials = 1000
	old := mustMap(t, 1, testNodes(5))
	next := mustMap(t, 2, testNodes(6)) // adds node-5
	moves := Diff(old, next, testSerials(nSerials))
	if len(moves) == 0 {
		t.Fatal("no serials moved on join")
	}
	for _, mv := range moves {
		if mv.To != "node-5" {
			t.Fatalf("join moved %s from %s to %s; only moves to the new node are allowed", mv.Serial, mv.From, mv.To)
		}
	}
	expected := nSerials / 6
	if len(moves) < expected/2 || len(moves) > expected*2 {
		t.Errorf("join moved %d serials, want ~1/N = %d", len(moves), expected)
	}
}

// Removing a node must move only the serials it owned.
func TestMinimalMovementOnLeave(t *testing.T) {
	const nSerials = 1000
	old := mustMap(t, 1, testNodes(5))
	nodes := testNodes(5)
	shrunk := append(nodes[:2:2], nodes[3:]...) // drop node-2
	next := mustMap(t, 2, shrunk)

	owned := 0
	serials := testSerials(nSerials)
	for _, s := range serials {
		if old.OwnerID(s) == "node-2" {
			owned++
		}
	}
	moves := Diff(old, next, serials)
	if len(moves) != owned {
		t.Fatalf("leave moved %d serials, but node-2 owned %d", len(moves), owned)
	}
	for _, mv := range moves {
		if mv.From != "node-2" {
			t.Fatalf("leave moved %s from %s; only the removed node's serials may move", mv.Serial, mv.From)
		}
	}
	expected := nSerials / 5
	if owned < expected/2 || owned > expected*2 {
		t.Errorf("removed node owned %d serials, want ~1/N = %d", owned, expected)
	}
}

// A node with weight 2 should own about twice the share of an
// equal-weight peer.
func TestWeightedPlacement(t *testing.T) {
	nodes := testNodes(4)
	nodes[0].Weight = 2 // shares: 2/5, 1/5, 1/5, 1/5
	m := mustMap(t, 1, nodes)
	counts := make([]int, len(nodes))
	for _, s := range testSerials(5000) {
		counts[m.OwnerIndex([]byte(s))]++
	}
	want := 5000 * 2 / 5
	if counts[0] < want*3/4 || counts[0] > want*5/4 {
		t.Errorf("weight-2 node owns %d of 5000, want ~%d (counts %v)", counts[0], want, counts)
	}
}

func TestMapValidate(t *testing.T) {
	cases := []struct {
		name  string
		nodes []Node
	}{
		{"empty", nil},
		{"blank id", []Node{{ID: "", URL: "http://x"}}},
		{"dup id", []Node{{ID: "a", URL: "http://x"}, {ID: "a", URL: "http://y"}}},
		{"blank url", []Node{{ID: "a", URL: ""}}},
	}
	for _, tc := range cases {
		if _, err := NewMap(1, tc.nodes); err == nil {
			t.Errorf("%s: NewMap accepted invalid nodes", tc.name)
		}
	}
	var nilMap *Map
	if err := nilMap.Validate(); err == nil {
		t.Error("nil map validated")
	}
}

func TestLoadWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	m := mustMap(t, 7, []Node{
		{ID: "a", URL: "http://a:1", Followers: []string{"http://a2:1"}, Weight: 2},
		{ID: "b", URL: "http://b:1"},
	})
	if err := WriteMap(path, m); err != nil {
		t.Fatalf("WriteMap: %v", err)
	}
	got, err := LoadMap(path)
	if err != nil {
		t.Fatalf("LoadMap: %v", err)
	}
	if got.Epoch != 7 || len(got.Nodes) != 2 || got.Nodes[0].Weight != 2 ||
		len(got.Nodes[0].Followers) != 1 || got.Nodes[0].Followers[0] != "http://a2:1" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := LoadMap(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadMap accepted a missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := WriteMap(bad, &Map{Epoch: 1}); err == nil {
		t.Error("WriteMap accepted an invalid map")
	}
}

func TestGroupMoves(t *testing.T) {
	moves := []Move{
		{Serial: "s3", From: "a", To: "b"},
		{Serial: "s1", From: "a", To: "b"},
		{Serial: "s2", From: "c", To: "b"},
	}
	got := GroupMoves(moves)
	if len(got) != 2 {
		t.Fatalf("got %d transfers, want 2", len(got))
	}
	if got[0].From != "a" || got[0].To != "b" || len(got[0].Serials) != 2 || got[0].Serials[0] != "s1" {
		t.Fatalf("transfer 0 wrong: %+v", got[0])
	}
	if got[1].From != "c" || len(got[1].Serials) != 1 {
		t.Fatalf("transfer 1 wrong: %+v", got[1])
	}
}

func TestNodeURLs(t *testing.T) {
	n := Node{ID: "a", URL: "http://p", Followers: []string{"http://f1", "http://f2"}}
	urls := n.URLs()
	if len(urls) != 3 || urls[0] != "http://p" || urls[2] != "http://f2" {
		t.Fatalf("URLs: %v", urls)
	}
}

// referencePairHash is the pair hash placement used when every node's
// score hashed the serial again, kept as the reference the one-hash
// placement is held to.
func referencePairHash(nodeID string, serial []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hn := uint64(offset64)
	for i := 0; i < len(nodeID); i++ {
		hn ^= uint64(nodeID[i])
		hn *= prime64
	}
	hs := uint64(offset64)
	for i := 0; i < len(serial); i++ {
		hs ^= uint64(serial[i])
		hs *= prime64
	}
	return mix64(mix64(hn) ^ (mix64(hs) * 0x9e3779b97f4a7c15))
}

// referenceOwner is OwnerIndex over referencePairHash.
func referenceOwner(m *Map, serial []byte) (int, []float64) {
	best, bestScore := 0, math.Inf(-1)
	scores := make([]float64, len(m.Nodes))
	for i, n := range m.Nodes {
		h := referencePairHash(n.ID, serial)
		u := (float64(h>>11) + 0.5) / (1 << 53)
		s := -n.weight() / math.Log(u)
		scores[i] = s
		if s > bestScore || (s == bestScore && n.ID < m.Nodes[best].ID) {
			best, bestScore = i, s
		}
	}
	return best, scores
}

// TestOwnerMatchesReference holds placement to the reference pair hash
// bit for bit: every node's score and the owner, over random serials
// (empty and non-ASCII ones among them) and random weighted node sets.
func TestOwnerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nodes := make([]Node, 1+rng.Intn(6))
		for i := range nodes {
			nodes[i] = Node{ID: fmt.Sprintf("n%d-%x", i, rng.Uint32()), URL: "http://x"}
			if rng.Intn(2) == 0 {
				nodes[i].Weight = rng.Float64() * 4
			}
		}
		m := &Map{Epoch: 1, Nodes: nodes}
		for k := 0; k < 200; k++ {
			serial := make([]byte, rng.Intn(24))
			rng.Read(serial)
			want, scores := referenceOwner(m, serial)
			hs := serialHash(serial)
			for i, n := range m.Nodes {
				if got := rendezvousScore(mix64(mix64(fnv1a(n.ID))^hs), n.weight()); math.Float64bits(got) != math.Float64bits(scores[i]) {
					t.Fatalf("serial %x node %s: score %v, reference %v", serial, n.ID, got, scores[i])
				}
			}
			if got := m.OwnerIndex(serial); got != want {
				t.Fatalf("serial %x: OwnerIndex %d, reference %d", serial, got, want)
			}
			if got := m.Owner(string(serial)).ID; got != m.Nodes[want].ID {
				t.Fatalf("serial %x: Owner %s, reference %s", serial, got, m.Nodes[want].ID)
			}
		}
	}
}
