package hierarchy

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks that the hierarchy parser never panics and that any
// successfully parsed hierarchy round-trips through WriteTo/Read.
func FuzzRead(f *testing.F) {
	f.Add("0\t-1\tRoot\n1\t0\tA\n2\t0\tB\n")
	f.Add("0\t-1\tRoot\n")
	f.Add("garbage")
	f.Add("0\t-1\tRoot\n1\t7\tA\n")
	f.Add("0\t-1\tRoot\n1\t0\t\n")
	// Id forms Sscanf("%d") once read past: trailing junk, padding and a
	// base prefix.
	f.Add("0\t-1\tRoot\n1abc\t0\tA\n")
	f.Add("0\t-1\tRoot\n 1\t0\tA\n")
	f.Add("0\t-1\tRoot\n1\t0x0\tA\n")
	f.Fuzz(func(t *testing.T, input string) {
		h, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := h.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo after successful Read: %v", err)
		}
		h2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if h2.Len() != h.Len() {
			t.Fatalf("round trip changed size: %d != %d", h2.Len(), h.Len())
		}
		for i := 0; i < h.Len(); i++ {
			n := NodeID(i)
			if h.Name(n) != h2.Name(n) || h.Parent(n) != h2.Parent(n) {
				t.Fatalf("node %d changed", i)
			}
		}
	})
}

// FuzzFromPaths checks the path parser never panics and that parsed
// hierarchies are well-formed.
func FuzzFromPaths(f *testing.F) {
	f.Add("Food/WesternFood/Fastfood/KFC\nLocation/US")
	f.Add("A//B")
	f.Add("#comment\nX/Y")
	f.Fuzz(func(t *testing.T, input string) {
		h, err := FromPaths(strings.NewReader(input), '/', "Root")
		if err != nil {
			return
		}
		for i := 1; i < h.Len(); i++ {
			n := NodeID(i)
			if h.Depth(n) != h.Depth(h.Parent(n))+1 {
				t.Fatal("depth invariant broken")
			}
		}
	})
}

// FuzzFromEdges checks the edge parser never panics and rejects cycles.
func FuzzFromEdges(f *testing.F) {
	f.Add("A\tB\nB\tC")
	f.Add("A\tB\nB\tA")
	f.Add("x")
	f.Fuzz(func(t *testing.T, input string) {
		h, err := FromEdges(strings.NewReader(input), "Root")
		if err != nil {
			return
		}
		for i := 1; i < h.Len(); i++ {
			n := NodeID(i)
			if h.Depth(n) != h.Depth(h.Parent(n))+1 {
				t.Fatal("depth invariant broken")
			}
		}
	})
}
