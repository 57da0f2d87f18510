package shard

import (
	"errors"
	"testing"
)

// TestNodeStore pins the node's packed row store over a real socket: each way
// a fetch can name a row the node does not hold, RowsHeld across re-pushes,
// and a push at another dim, which is refused whole.
func TestNodeStore(t *testing.T) {
	const dim = 4
	f, err := StartLocalFabric(1, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, node := f.Transport, f.Servers[0]

	held := []int32{1, 3} // table 1's index spans rows 0..3
	if err := tr.Push(1, 0, held, rowPattern(dim)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Push(1, 0, []int32{3, 1, 3}, rowPattern(dim)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		table int
		row   int32
	}{
		{"a table below the pushed one", 0, 1},
		{"a table past every pushed one", 7, 1},
		{"a row past the index", 1, 4},
		{"a row in the index that was never pushed", 1, 2},
	} {
		rows := []int32{c.row}
		if err := tr.Fetch(c.table, 0, rows, stagingFor(rows, dim), nil); !errors.Is(err, ErrUnknownRow) {
			t.Fatalf("fetch of %s (table %d row %d): got %v want ErrUnknownRow", c.name, c.table, c.row, err)
		}
	}
	st := stagingFor(held, dim)
	if err := tr.Fetch(1, 0, held, st, nil); err != nil {
		t.Fatalf("fetch of the held rows after the unknown ones: %v", err)
	}
	checkFetched(t, st, held, dim)
	if s := node.Stats(); s.RowsHeld != 2 || s.RowsStored != 5 || s.PushFrames != 2 {
		t.Fatalf("after re-pushes: held %d stored %d push frames %d, want 2, 5, 2", s.RowsHeld, s.RowsStored, s.PushFrames)
	}

	// Table 1's dim is 4 since its first push: one at dim 8 stores nothing,
	// not even its row the node did not hold, and the coordinator reads the
	// refusal in the ack's place and gives the peer up.
	wide := func(int32) []float32 { return []float32{-1, -1, -1, -1, -1, -1, -1, -1} }
	if err := tr.Push(1, 0, []int32{1, 2}, wide); err != nil {
		t.Fatal(err)
	}
	if err := tr.Fetch(1, 0, held, stagingFor(held, dim), nil); !errors.Is(err, ErrPeerDead) || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("fetch after a push at another dim: got %v want ErrPeerDead wrapping ErrBadFrame", err)
	}
	node.mu.Lock()
	row1, row2 := node.tables[1].row(1), node.tables[1].row(2)
	node.mu.Unlock()
	if row1[0] != 1000 || row2 != nil {
		t.Fatalf("the refused push reached the store: row 1 = %v, row 2 = %v", row1, row2)
	}
	if s := node.Stats(); s.RowsHeld != 2 || s.PushFrames != 2 {
		t.Fatalf("after the refused push: held %d push frames %d, want 2, 2", s.RowsHeld, s.PushFrames)
	}
}
