package hierarchy

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// buildFig1 constructs the paper's Figure 1 hierarchy.
func buildFig1() (*Hierarchy, map[string]NodeID) {
	h := New("Root")
	m := map[string]NodeID{"Root": h.Root()}
	add := func(parent, name string) {
		m[name] = h.Add(m[parent], name)
	}
	add("Root", "Food")
	add("Root", "Location")
	add("Food", "WesternFood")
	add("WesternFood", "Fastfood")
	add("WesternFood", "Pizza")
	add("Fastfood", "BurgerKing")
	add("Fastfood", "KFC")
	add("Pizza", "PizzaHut")
	add("Pizza", "Dominos")
	add("Location", "US")
	add("US", "CA")
	add("US", "NY")
	add("CA", "SanFrancisco")
	add("CA", "PaloAlto")
	add("SanFrancisco", "MountainView")
	add("MountainView", "GoogleHeadquarters")
	add("NY", "NewYork")
	add("NewYork", "Manhattan")
	add("NewYork", "Brooklyn")
	return h, m
}

func TestFig1Depths(t *testing.T) {
	h, m := buildFig1()
	want := map[string]int{
		"Root": 0, "Food": 1, "WesternFood": 2, "Fastfood": 3,
		"BurgerKing": 4, "KFC": 4, "PizzaHut": 4, "Dominos": 4,
		"Location": 1, "US": 2, "CA": 3, "NY": 3,
		"SanFrancisco": 4, "MountainView": 5, "GoogleHeadquarters": 6,
		"NewYork": 4, "Manhattan": 5, "Brooklyn": 5, "PaloAlto": 4,
	}
	for name, d := range want {
		if got := h.Depth(m[name]); got != d {
			t.Errorf("Depth(%s) = %d, want %d", name, got, d)
		}
	}
}

func TestFig1LCA(t *testing.T) {
	h, m := buildFig1()
	cases := []struct{ a, b, want string }{
		{"BurgerKing", "KFC", "Fastfood"},        // paper §2.1.1 example
		{"BurgerKing", "Dominos", "WesternFood"}, // §4 example
		{"BurgerKing", "Manhattan", "Root"},
		{"MountainView", "GoogleHeadquarters", "MountainView"},
		{"SanFrancisco", "PaloAlto", "CA"},
		{"KFC", "KFC", "KFC"},
	}
	for _, c := range cases {
		if got := h.LCA(m[c.a], m[c.b]); h.Name(got) != c.want {
			t.Errorf("LCA(%s, %s) = %s, want %s", c.a, c.b, h.Name(got), c.want)
		}
		if got := h.LCA(m[c.b], m[c.a]); h.Name(got) != c.want {
			t.Errorf("LCA(%s, %s) = %s, want %s (symmetry)", c.b, c.a, h.Name(got), c.want)
		}
	}
	// Paper: depth(LCA(BurgerKing, KFC)) = 3 giving similarity 3/4.
	if d := h.LCADepth(m["BurgerKing"], m["KFC"]); d != 3 {
		t.Errorf("LCADepth(BurgerKing, KFC) = %d, want 3", d)
	}
}

func TestAncestor(t *testing.T) {
	h, m := buildFig1()
	if got := h.Ancestor(m["GoogleHeadquarters"], 3); h.Name(got) != "CA" {
		t.Errorf("Ancestor(GoogleHeadquarters, 3) = %s, want CA", h.Name(got))
	}
	if got := h.Ancestor(m["KFC"], 10); got != m["KFC"] {
		t.Errorf("Ancestor beyond depth should return the node itself")
	}
	if got := h.Ancestor(m["KFC"], -1); got != h.Root() {
		t.Errorf("Ancestor(-1) should return root")
	}
	if !h.IsAncestor(m["Food"], m["KFC"]) {
		t.Errorf("Food should be an ancestor of KFC")
	}
	if h.IsAncestor(m["Pizza"], m["KFC"]) {
		t.Errorf("Pizza must not be an ancestor of KFC")
	}
	if !h.IsAncestor(m["KFC"], m["KFC"]) {
		t.Errorf("a node is its own ancestor")
	}
}

func TestLookup(t *testing.T) {
	h, m := buildFig1()
	if got, ok := h.LookupOne("KFC"); !ok || got != m["KFC"] {
		t.Errorf("LookupOne(KFC) = %v, %v", got, ok)
	}
	if _, ok := h.LookupOne("Sushi"); ok {
		t.Errorf("LookupOne(Sushi) should not exist")
	}
	// Duplicate names map to multiple nodes.
	h.Add(m["NY"], "MountainView") // a hypothetical second MountainView
	if got := h.Lookup("MountainView"); len(got) != 2 {
		t.Errorf("Lookup(MountainView) returned %d nodes, want 2", len(got))
	}
}

func TestLeavesAndStats(t *testing.T) {
	h, _ := buildFig1()
	leaves := h.Leaves()
	wantLeaves := 9 // BurgerKing KFC PizzaHut Dominos GoogleHeadquarters Manhattan Brooklyn PaloAlto ... count below
	// Leaves: BurgerKing, KFC, PizzaHut, Dominos, PaloAlto, GoogleHeadquarters, Manhattan, Brooklyn = 8
	wantLeaves = 8
	if len(leaves) != wantLeaves {
		names := make([]string, len(leaves))
		for i, l := range leaves {
			names[i] = h.Name(l)
		}
		t.Errorf("Leaves() = %v (%d), want %d", names, len(leaves), wantLeaves)
	}
	s := h.ComputeStats()
	if s.Nodes != 20 || s.Height != 6 {
		t.Errorf("stats = %+v, want 20 nodes height 6", s)
	}
	if s.MaxFanout < 2 || s.MinFanout < 1 {
		t.Errorf("fanout stats out of range: %+v", s)
	}
}

func TestRoundTripSerialization(t *testing.T) {
	h, m := buildFig1()
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	h2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if h2.Len() != h.Len() {
		t.Fatalf("round trip changed node count: %d != %d", h2.Len(), h.Len())
	}
	for name, id := range m {
		if h2.Name(id) != name || h2.Depth(id) != h.Depth(id) || h2.Parent(id) != h.Parent(id) {
			t.Errorf("node %s changed after round trip", name)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"0\t5\tRoot\n",         // root with bad parent
		"garbage\n",            // malformed line
		"0\t-1\tRoot\nx\ty\n",  // malformed second line
		"0\t-1\tRoot\n1\t7\tA", // undefined parent
		"0\t-1\tRoot\n5\t0\tA", // non-dense id
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) should fail", c)
		}
	}
}

// TestReadRejectsNonDecimalIds pins Read's id parsing to the plain
// decimals WriteTo emits: trailing junk, padding and base prefixes are
// errors, not the number their leading digits spell.
func TestReadRejectsNonDecimalIds(t *testing.T) {
	for _, bad := range []string{"1abc", " 1", "1 ", "0x1", "1.0", ""} {
		for _, c := range []struct{ input, err string }{
			{"0\t-1\tRoot\n" + bad + "\t0\tA\n", fmt.Sprintf("hierarchy: line 2: bad id %q", bad)},
			{"0\t-1\tRoot\n1\t0\tA\n2\t" + bad + "\tB\n", fmt.Sprintf("hierarchy: line 3: bad parent %q", bad)},
		} {
			_, err := Read(strings.NewReader(c.input))
			if err == nil || err.Error() != c.err {
				t.Errorf("Read(%q) = %v, want %q", c.input, err, c.err)
			}
		}
	}
	h, err := Read(strings.NewReader("0\t-1\tRoot\n1\t0\tA\n2\t1\tB\n"))
	if err != nil || h.Len() != 3 || h.Parent(2) != 1 {
		t.Fatalf("plain decimal ids: %v", err)
	}
}

func TestFromDAG(t *testing.T) {
	// Diamond: Root -> A, B; C has parents A and B. C must be duplicated.
	dag := []DAGNode{
		{Name: "Root"},
		{Name: "A", Parents: []int{0}},
		{Name: "B", Parents: []int{0}},
		{Name: "C", Parents: []int{1, 2}},
		{Name: "D", Parents: []int{3}},
	}
	h, err := FromDAG(dag)
	if err != nil {
		t.Fatalf("FromDAG: %v", err)
	}
	if got := len(h.Lookup("C")); got != 2 {
		t.Errorf("C duplicated %d times, want 2", got)
	}
	if got := len(h.Lookup("D")); got != 2 {
		t.Errorf("D duplicated %d times, want 2 (one per copy of C)", got)
	}
	// Every copy of C must have depth 2 and a distinct parent name path.
	for _, c := range h.Lookup("C") {
		if h.Depth(c) != 2 {
			t.Errorf("copy of C at depth %d, want 2", h.Depth(c))
		}
	}
}

func TestFromDAGErrors(t *testing.T) {
	if _, err := FromDAG(nil); err == nil {
		t.Error("empty DAG should fail")
	}
	if _, err := FromDAG([]DAGNode{{Name: "R", Parents: []int{1}}}); err == nil {
		t.Error("root with parents should fail")
	}
	if _, err := FromDAG([]DAGNode{{Name: "R"}, {Name: "A"}}); err == nil {
		t.Error("orphan non-root should fail")
	}
	if _, err := FromDAG([]DAGNode{{Name: "R"}, {Name: "A", Parents: []int{9}}}); err == nil {
		t.Error("invalid parent index should fail")
	}
}

// randomTree builds a random hierarchy with n nodes for property tests.
func randomTree(r *rand.Rand, n int) *Hierarchy {
	h := New("root")
	for i := 1; i < n; i++ {
		parent := NodeID(r.Intn(h.Len()))
		h.Add(parent, "n")
	}
	return h
}

// lcaNaive computes the LCA by materializing root paths.
func lcaNaive(h *Hierarchy, a, b NodeID) NodeID {
	anc := map[NodeID]bool{}
	for n := a; n != None; n = h.Parent(n) {
		anc[n] = true
	}
	for n := b; n != None; n = h.Parent(n) {
		if anc[n] {
			return n
		}
	}
	return h.Root()
}

func TestLCAProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64, an, bn uint16) bool {
		rr := rand.New(rand.NewSource(seed))
		h := randomTree(rr, 2+rr.Intn(200))
		a := NodeID(int(an) % h.Len())
		b := NodeID(int(bn) % h.Len())
		got := h.LCA(a, b)
		want := lcaNaive(h, a, b)
		if got != want {
			return false
		}
		// LCA laws: idempotent, symmetric, ancestor of both.
		return h.LCA(a, a) == a && h.LCA(b, a) == got &&
			h.IsAncestor(got, a) && h.IsAncestor(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestDepthMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		h := randomTree(rr, 2+rr.Intn(100))
		for i := 1; i < h.Len(); i++ {
			n := NodeID(i)
			if h.Depth(n) != h.Depth(h.Parent(n))+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAddPanicsOnInvalidParent(t *testing.T) {
	h := New("root")
	defer func() {
		if recover() == nil {
			t.Error("Add with invalid parent should panic")
		}
	}()
	h.Add(99, "x")
}

// TestPathCodeLCA: a node has a path code exactly when it is at most
// maxPathDepth deep and no node on its root path is past the 255th child
// of its parent, and for every two coded nodes the equal leading bytes of
// their codes, capped by their depths, are the depth of their LCA. The
// trees are random (most deeper than the codes reach) and one hand-built
// tree has a 300-child node and a chain past the code's depth.
func TestPathCodeLCA(t *testing.T) {
	wide := New("root")
	hub := wide.Add(wide.Root(), "hub")
	for i := 0; i < 300; i++ {
		c := wide.Add(hub, "leaf")
		if i%50 == 0 || i == 254 || i == 255 {
			wide.Add(c, "below")
		}
	}
	for n, d := wide.Root(), 0; d < maxPathDepth+2; d++ {
		n = wide.Add(n, "chain")
	}
	trees := []*Hierarchy{wide}
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 20; i++ {
		trees = append(trees, randomTree(r, 2+r.Intn(300)))
	}
	coded, uncoded, pairs := 0, 0, 0
	for _, h := range trees {
		for i := 0; i < h.Len(); i++ {
			n := NodeID(i)
			fits := h.Depth(n) <= maxPathDepth
			for m := n; m != h.Root() && fits; m = h.Parent(m) {
				fits = slices.Index(h.Children(h.Parent(m)), m) < 255
			}
			if _, ok := h.PathCode(n); ok != fits {
				t.Fatalf("node %d at depth %d: has a code %v, fits %v", n, h.Depth(n), ok, fits)
			}
			if fits {
				coded++
			} else {
				uncoded++
			}
		}
		for a := 0; a < h.Len(); a++ {
			ca, oka := h.PathCode(NodeID(a))
			for b := 0; b < h.Len() && oka; b++ {
				cb, okb := h.PathCode(NodeID(b))
				if !okb {
					continue
				}
				pairs++
				got := min(bits.LeadingZeros64(ca^cb)/8, h.Depth(NodeID(a)), h.Depth(NodeID(b)))
				if want := h.LCADepth(NodeID(a), NodeID(b)); got != want {
					t.Fatalf("nodes %d, %d: LCA depth %d from codes %x, %x; want %d", a, b, got, ca, cb, want)
				}
			}
		}
	}
	if coded < 1000 || uncoded < 300 || pairs < 100000 {
		t.Fatalf("only %d coded and %d uncoded nodes, %d pairs", coded, uncoded, pairs)
	}
}
