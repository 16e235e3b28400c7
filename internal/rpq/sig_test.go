package rpq

import (
	"testing"

	"gcore/internal/ppg"
)

// WalkSig is a comparable fingerprint of a walk: the lengths of its
// node and edge sequences plus an FNV-1a hash of each. It is the test
// reference for walk identity: the engine compares arrival chains
// exactly (Shortest.SameWalk), and on every walk it keeps the two must
// agree — the combined 128 hash bits over length-checked sequences
// make an accidental collision within one test negligible.
type WalkSig struct {
	NodeLen  int
	EdgeLen  int
	NodeHash uint64
	EdgeHash uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd folds one 64-bit value into an FNV-1a state byte by byte.
func fnvAdd(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// SignatureOf computes the signature of the oriented walk given by
// its node and edge sequences.
func SignatureOf(nodes []ppg.NodeID, edges []ppg.EdgeID) WalkSig {
	sig := WalkSig{
		NodeLen:  len(nodes),
		EdgeLen:  len(edges),
		NodeHash: fnvOffset64,
		EdgeHash: fnvOffset64,
	}
	for _, n := range nodes {
		sig.NodeHash = fnvAdd(sig.NodeHash, uint64(n))
	}
	for _, e := range edges {
		sig.EdgeHash = fnvAdd(sig.EdgeHash, uint64(e))
	}
	return sig
}

// Signature returns the walk signature of a search result.
func (r PathResult) Signature() WalkSig {
	return SignatureOf(r.Nodes, r.Edges)
}

func TestWalkSig(t *testing.T) {
	a := SignatureOf([]ppg.NodeID{1, 2, 3}, []ppg.EdgeID{10, 11})
	if b := SignatureOf([]ppg.NodeID{1, 2, 3}, []ppg.EdgeID{10, 11}); a != b {
		t.Error("equal walks must have equal signatures")
	}
	if b := SignatureOf([]ppg.NodeID{3, 2, 1}, []ppg.EdgeID{10, 11}); a == b {
		t.Error("node order must matter")
	}
	if b := SignatureOf([]ppg.NodeID{1, 2, 3}, []ppg.EdgeID{11, 10}); a == b {
		t.Error("edge order must matter")
	}
	if b := SignatureOf([]ppg.NodeID{1, 2}, []ppg.EdgeID{10, 11}); a == b {
		t.Error("length must matter")
	}
	// A node sequence must not collide with the same IDs read as edges
	// (the node and edge hashes accumulate separately).
	if b := SignatureOf([]ppg.NodeID{1, 2, 3, 10, 11}, nil); a == b {
		t.Error("node/edge split must matter")
	}
	empty := SignatureOf(nil, nil)
	if empty.NodeLen != 0 || empty.EdgeLen != 0 {
		t.Error("empty walk lengths")
	}
	if r := (PathResult{Nodes: []ppg.NodeID{1, 2, 3}, Edges: []ppg.EdgeID{10, 11}}); r.Signature() != a {
		t.Error("PathResult.Signature must agree with SignatureOf")
	}
}
