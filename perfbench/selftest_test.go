package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/store"
)

// The self-test runs each workload briefly and alters one output of the
// program at a time, to show that each correctness check catches it.

const shortRun = 0.3 // host seconds of a measured phase

func short(t *testing.T, name string, sab *sabotage) *runResult {
	t.Helper()
	res, err := runOnce(findWorkload(name), 7, shortRun, false, sab)
	if err != nil {
		t.Fatal(err)
	}
	if res.completed == 0 {
		t.Fatalf("%s: no op completed", name)
	}
	return res
}

func wantProblem(t *testing.T, res *runResult, substr string) {
	t.Helper()
	for _, p := range res.problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Errorf("no check caught the change: want a problem containing %q, got %d: %q",
		substr, res.nProblems, res.problems)
}

// firstFile returns a preloaded file's inode.
func firstFile(t *testing.T, db *ndb.DB) *namespace.INode {
	nodes, err := db.ListSubtree(namespace.RootID)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if !n.IsDir {
			return n
		}
	}
	t.Fatal("no file in the store")
	return nil
}

func commit(t *testing.T, db *ndb.DB, fn func(tx store.Tx) error) {
	tx := db.Begin("selftest")
	if err := fn(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanRunsPassEveryCheck(t *testing.T) {
	for _, w := range workloads {
		if res := short(t, w.name, nil); res.nProblems != 0 || res.failed != 0 {
			t.Errorf("%s: %d problems, %d failed ops: %q", w.name, res.nProblems, res.failed, res.problems)
		}
	}
}

func TestAlteredResponseIsCaught(t *testing.T) {
	res := short(t, "spotify_warm", &sabotage{response: func(op namespace.OpType, resp *namespace.Response) bool {
		if op != namespace.OpRead || resp.Stat == nil {
			return false
		}
		resp.Stat.ID++
		return true
	}})
	wantProblem(t, res, "read /shared")
}

func TestAlteredStoreRowIsCaught(t *testing.T) {
	res := short(t, "spotify_warm", &sabotage{store: func(db *ndb.DB) {
		n := firstFile(t, db)
		commit(t, db, func(tx store.Tx) error {
			n.Name = "altered"
			return tx.PutINode(n)
		})
	}})
	wantProblem(t, res, "missing from store")
	wantProblem(t, res, "unexpected in store")
}

func TestOrphanRowFailsIntegrity(t *testing.T) {
	res := short(t, "spotify_warm", &sabotage{store: func(db *ndb.DB) {
		commit(t, db, func(tx store.Tx) error {
			return tx.PutINode(&namespace.INode{ID: 1 << 40, ParentID: 1<<40 + 1, Name: "orphan"})
		})
	}})
	wantProblem(t, res, "integrity: ")
}

func TestHeldLockIsCaught(t *testing.T) {
	res := short(t, "spotify_warm", &sabotage{store: func(db *ndb.DB) {
		tx := db.Begin("selftest")
		if _, err := tx.GetINode(namespace.RootID, store.LockShared); err != nil {
			t.Fatal(err)
		}
	}})
	wantProblem(t, res, "row locks still held")
}

func TestAlteredRecoveryIsCaught(t *testing.T) {
	res := short(t, "write_fanout", &sabotage{recovered: func(db *ndb.DB) {
		n := firstFile(t, db)
		commit(t, db, func(tx store.Tx) error { return tx.DeleteINode(n.ID) })
	}})
	wantProblem(t, res, "after recovery: missing from store")
}

// TestMetricsMatchBenchmarkJSON runs each listed workload briefly, plain
// and traced, and checks that the printed metrics are exactly the ones
// BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got map[string]metric, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics printed, %d declared", what, len(got), len(want))
		}
		for _, d := range want {
			if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s printed as %+v, declared with unit %q", what, d.Name, m, d.Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		wl := findWorkload(w.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
		plain, err := runOnce(wl, 3, shortRun, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(w.Name, endToEnd(plain), spec.EndToEnd)
		traced, err := runOnce(wl, 3, shortRun, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(w.Name+" traced", perLayer(traced, plain), spec.PerLayer)
	}
}
