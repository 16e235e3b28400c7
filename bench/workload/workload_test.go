package workload

import (
	"reflect"
	"testing"
)

// TestStreamsArePureFunctionsOfSeed: the same (workload, seed,
// connection) yields the same requests, a different seed different
// ones, and every workload's connections differ from each other.
func TestStreamsArePureFunctionsOfSeed(t *testing.T) {
	take := func(seed int64, name string, conn, n int) []Request {
		ds, err := NewDataset(200, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := New(name, ds, seed)
		if err != nil {
			t.Fatal(err)
		}
		st := spec.Stream(conn)
		out := make([]Request, n)
		for i := range out {
			out[i] = st.Next()
		}
		return out
	}
	for _, name := range Names {
		a, b := take(7, name, 1, 200), take(7, name, 1, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different streams", name)
		}
		if c := take(8, name, 1, 200); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
		if d := take(7, name, 0, 200); reflect.DeepEqual(a, d) {
			t.Errorf("%s: connections 0 and 1 send the same stream", name)
		}
	}
}

// TestMixedHasOneWriter: connection 0 of mixed_rw_durable only writes,
// the others only read, and every view is defined before the run.
func TestMixedHasOneWriter(t *testing.T) {
	ds, err := NewDataset(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := New(MixedRWDurable, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Setup) != Views {
		t.Fatalf("%d set-up statements, want %d views", len(spec.Setup), Views)
	}
	w, r := spec.Stream(0), spec.Stream(1)
	for i := 0; i < 100; i++ {
		if req := w.Next(); !req.Write {
			t.Fatalf("writer request %d is a read: %+v", i, req)
		}
		if req := r.Next(); req.Write {
			t.Fatalf("reader request %d is a write: %+v", i, req)
		}
	}
}
