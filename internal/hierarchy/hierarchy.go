// Package hierarchy implements the knowledge hierarchy used by K-Join:
// a rooted tree of named nodes with depth and lowest-common-ancestor
// queries, plus a DAG-to-tree transformation (paper §6.5) and a simple
// text serialization.
//
// The hierarchy is append-only: nodes are added under an existing parent
// and never removed. Node names need not be unique — an element may map
// to several nodes (paper §6.4) — so lookup by name returns a slice.
package hierarchy

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// NodeID identifies a node in a Hierarchy. The root is always NodeID 0.
type NodeID int32

// None is the invalid node id, used for "no node" results.
const None NodeID = -1

// Hierarchy is a rooted tree of named nodes. The zero value is not usable;
// call New to create a hierarchy with a root.
type Hierarchy struct {
	names    []string
	parent   []NodeID
	depth    []int32
	children [][]NodeID
	byName   map[string][]NodeID
	code     []uint64 // see PathCode; noCode when the path does not fit
}

// maxPathDepth is the deepest node a path code holds (PathCode): 8 bits
// per level, the low byte left free.
const maxPathDepth = 7

const noCode = ^uint64(0)

// New returns a hierarchy containing only a root node with the given name.
// The root has depth 0 (paper §2.1.1).
func New(rootName string) *Hierarchy {
	h := &Hierarchy{byName: make(map[string][]NodeID)}
	h.names = append(h.names, rootName)
	h.parent = append(h.parent, None)
	h.depth = append(h.depth, 0)
	h.children = append(h.children, nil)
	h.byName[rootName] = []NodeID{0}
	h.code = append(h.code, 0)
	return h
}

// Root returns the root node id (always 0).
func (h *Hierarchy) Root() NodeID { return 0 }

// Len returns the number of nodes in the hierarchy.
func (h *Hierarchy) Len() int { return len(h.names) }

// Add appends a new node named name under parent and returns its id.
// It panics if parent is not a valid node of h.
func (h *Hierarchy) Add(parent NodeID, name string) NodeID {
	if parent < 0 || int(parent) >= len(h.names) {
		panic(fmt.Sprintf("hierarchy: Add under invalid parent %d", parent))
	}
	id := NodeID(len(h.names))
	d, ord, code := h.depth[parent]+1, len(h.children[parent])+1, noCode
	if pc := h.code[parent]; pc != noCode && d <= maxPathDepth && ord <= 0xff {
		code = pc | uint64(ord)<<(64-8*d)
	}
	h.names = append(h.names, name)
	h.parent = append(h.parent, parent)
	h.depth = append(h.depth, d)
	h.code = append(h.code, code)
	h.children = append(h.children, nil)
	h.children[parent] = append(h.children[parent], id)
	h.byName[name] = append(h.byName[name], id)
	return id
}

// PathCode returns n's root path in one word: byte i from the top is the
// child ordinal + 1 of n's ancestor at depth i+1 (n itself at its own
// depth), the low byte is free, so two nodes' LCA is at depth
// min(bits.LeadingZeros64(a^b)/8, Depth(a), Depth(b)). ok is false when
// n is deeper than 7 levels or its path passes a 256th child.
func (h *Hierarchy) PathCode(n NodeID) (code uint64, ok bool) {
	return h.code[n], h.code[n] != noCode
}

// Name returns the name of node n.
func (h *Hierarchy) Name(n NodeID) string { return h.names[n] }

// Parent returns the parent of n, or None for the root.
func (h *Hierarchy) Parent(n NodeID) NodeID { return h.parent[n] }

// Depth returns the depth of n; the root has depth 0.
func (h *Hierarchy) Depth(n NodeID) int { return int(h.depth[n]) }

// Children returns the children of n. The returned slice must not be
// modified.
func (h *Hierarchy) Children(n NodeID) []NodeID { return h.children[n] }

// IsLeaf reports whether n has no children.
func (h *Hierarchy) IsLeaf(n NodeID) bool { return len(h.children[n]) == 0 }

// Lookup returns all nodes named name, or nil if there are none.
// The returned slice must not be modified.
func (h *Hierarchy) Lookup(name string) []NodeID { return h.byName[name] }

// LookupOne returns some node named name (the first added) and whether one
// exists. It is the single-node mapping used by plain K-Join (§2.1.1).
func (h *Hierarchy) LookupOne(name string) (NodeID, bool) {
	ns := h.byName[name]
	if len(ns) == 0 {
		return None, false
	}
	return ns[0], true
}

// LCA returns the lowest common ancestor of a and b. Both must be valid
// nodes. The walk is O(depth), which is tiny for knowledge hierarchies
// (the paper's hierarchy has height 6).
func (h *Hierarchy) LCA(a, b NodeID) NodeID {
	for h.depth[a] > h.depth[b] {
		a = h.parent[a]
	}
	for h.depth[b] > h.depth[a] {
		b = h.parent[b]
	}
	for a != b {
		a = h.parent[a]
		b = h.parent[b]
	}
	return a
}

// LCADepth returns the depth of the lowest common ancestor of a and b,
// the quantity d_{ex,ey} of Definition 1.
func (h *Hierarchy) LCADepth(a, b NodeID) int { return int(h.depth[h.LCA(a, b)]) }

// Ancestor returns the ancestor of n at depth d. If d >= Depth(n) it
// returns n itself; if d < 0 it returns the root.
func (h *Hierarchy) Ancestor(n NodeID, d int) NodeID {
	if d < 0 {
		d = 0
	}
	for int(h.depth[n]) > d {
		n = h.parent[n]
	}
	return n
}

// IsAncestor reports whether a is an ancestor of (or equal to) b.
func (h *Hierarchy) IsAncestor(a, b NodeID) bool {
	return h.Ancestor(b, h.Depth(a)) == a
}

// Names returns all distinct node names in sorted order.
func (h *Hierarchy) Names() []string {
	out := make([]string, 0, len(h.byName))
	for n := range h.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Leaves returns all leaf node ids in id order.
func (h *Hierarchy) Leaves() []NodeID {
	var out []NodeID
	for i := range h.names {
		if len(h.children[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Height returns the maximum node depth in the hierarchy.
func (h *Hierarchy) Height() int {
	max := int32(0)
	for _, d := range h.depth {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// Stats describes the shape of a hierarchy, matching Table 2 of the paper.
type Stats struct {
	Nodes     int // total node count
	Height    int // maximum depth
	AvgFanout int // average children per internal node, rounded
	MaxFanout int // maximum children of any node
	MinFanout int // minimum children of any internal node
}

// ComputeStats returns shape statistics in the format of the paper's
// Table 2. Fanout statistics consider internal (non-leaf) nodes only.
func (h *Hierarchy) ComputeStats() Stats {
	s := Stats{Nodes: h.Len(), Height: h.Height(), MinFanout: 1 << 30}
	internal, totalFan := 0, 0
	for i := range h.names {
		f := len(h.children[i])
		if f == 0 {
			continue
		}
		internal++
		totalFan += f
		if f > s.MaxFanout {
			s.MaxFanout = f
		}
		if f < s.MinFanout {
			s.MinFanout = f
		}
	}
	if internal > 0 {
		s.AvgFanout = (totalFan + internal/2) / internal
	}
	if s.MinFanout == 1<<30 {
		s.MinFanout = 0
	}
	return s
}

// WriteTo serializes the hierarchy in a line-oriented text format:
// one node per line, "<id>\t<parent-id>\t<name>", root first with parent
// -1. It implements io.WriterTo.
func (h *Hierarchy) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for i, name := range h.names {
		c, err := fmt.Fprintf(bw, "%d\t%d\t%s\n", i, h.parent[i], name)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses the text format produced by WriteTo. Parents must appear
// before children (WriteTo guarantees this).
func Read(r io.Reader) (*Hierarchy, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var h *Hierarchy
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("hierarchy: line %d: want 3 tab-separated fields, got %q", line, text)
		}
		id, err := strconv.Atoi(parts[0]) // plain decimals, as WriteTo writes them
		if err != nil {
			return nil, fmt.Errorf("hierarchy: line %d: bad id %q", line, parts[0])
		}
		parent, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("hierarchy: line %d: bad parent %q", line, parts[1])
		}
		name := parts[2]
		if h == nil {
			if parent != -1 {
				return nil, fmt.Errorf("hierarchy: line %d: first node must be the root (parent -1)", line)
			}
			h = New(name)
			continue
		}
		if parent < 0 || parent >= h.Len() {
			return nil, fmt.Errorf("hierarchy: line %d: parent %d not yet defined", line, parent)
		}
		if got := h.Add(NodeID(parent), name); int(got) != id {
			return nil, fmt.Errorf("hierarchy: line %d: node ids must be dense and in order (want %d, got %d)", line, got, id)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if h == nil {
		return nil, fmt.Errorf("hierarchy: empty input")
	}
	return h, nil
}

// DAGNode is one node of an input DAG for FromDAG. Parents index into the
// node slice; the root has no parents.
type DAGNode struct {
	Name    string
	Parents []int
}

// FromDAG converts a DAG into a tree by duplicating each multi-parent node
// under every parent (paper §6.5). Node 0 of dag must be the unique root.
// The resulting tree preserves every root-to-node path of the DAG, and a
// name maps to one tree node per distinct DAG path, so the multi-node
// machinery of §6.4 applies.
func FromDAG(dag []DAGNode) (*Hierarchy, error) {
	if len(dag) == 0 {
		return nil, fmt.Errorf("hierarchy: empty DAG")
	}
	if len(dag[0].Parents) != 0 {
		return nil, fmt.Errorf("hierarchy: DAG node 0 must be the root (no parents)")
	}
	children := make([][]int, len(dag))
	indeg := make([]int, len(dag))
	for i, n := range dag {
		if i == 0 {
			continue
		}
		if len(n.Parents) == 0 {
			return nil, fmt.Errorf("hierarchy: DAG node %d (%s) has no parents and is not the root", i, n.Name)
		}
		for _, p := range n.Parents {
			if p < 0 || p >= len(dag) {
				return nil, fmt.Errorf("hierarchy: DAG node %d has invalid parent %d", i, p)
			}
			children[p] = append(children[p], i)
			indeg[i]++
		}
	}
	// Verify acyclicity via Kahn's algorithm.
	order := make([]int, 0, len(dag))
	queue := []int{0}
	deg := append([]int(nil), indeg...)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range children[u] {
			deg[v]--
			if deg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != len(dag) {
		return nil, fmt.Errorf("hierarchy: input graph has a cycle or unreachable nodes")
	}
	h := New(dag[0].Name)
	// Duplicate each DAG subtree under every tree copy of each parent.
	var expand func(dagNode int, treeParent NodeID)
	expand = func(dagNode int, treeParent NodeID) {
		id := h.Add(treeParent, dag[dagNode].Name)
		// Sort children for deterministic output.
		cs := append([]int(nil), children[dagNode]...)
		sort.Ints(cs)
		for _, c := range cs {
			expand(c, id)
		}
	}
	cs := append([]int(nil), children[0]...)
	sort.Ints(cs)
	for _, c := range cs {
		expand(c, 0)
	}
	return h, nil
}
