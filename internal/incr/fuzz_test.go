package incr

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rel"
)

// FuzzIncrementalUpdates interprets the fuzz input as a sequence of
// SetProb / Insert / Delete / ApplyBatch operations on a small sharded chain
// store and asserts, after every commit, that each live view equals the full
// re-Prepare oracle to 1e-12 — including after tombstones, revivals,
// singleton-shard opens, component merges, fallback re-shards and net-zero
// churn batches that the delta pass short-circuits. Re-Prepare runs the same
// transition code as the views, so on stores of at most 12 live facts every
// view, and a 3-lane ProbabilityBatch of the first, is also checked against
// possible-world enumeration (checkWorlds). Three bytes drive one operation:
// opcode, argument, probability.
func FuzzIncrementalUpdates(f *testing.F) {
	f.Add([]byte{0, 3, 128, 2, 1, 200, 4, 5, 0, 3, 9, 64})
	f.Add([]byte{2, 0, 255, 2, 0, 10, 5, 0, 77, 1, 2, 30})
	f.Add([]byte{6, 1, 50, 6, 2, 60, 0, 0, 0, 4, 1, 1})
	f.Add([]byte{7, 2, 90, 2, 1, 40, 7, 2, 10, 2, 3, 200})
	f.Add([]byte{9, 2, 100, 0, 1, 30, 9, 0, 5, 6, 4, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewStore(gen.RSTChain(3, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		v1, err := s.RegisterView(rel.HardQuery(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v2, err := s.RegisterView(rel.NewCQ(rel.NewAtom("R", rel.V("x"))), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v3, err := s.RegisterView(rel.NewCQ(rel.NewAtom("T", rel.V("x"))), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		views := []*View{v1, v2, v3}
		seeded := s.Len()

		step := func(op, arg byte, pr float64) {
			switch op % 10 {
			case 0: // probability tweak
				id := int(arg) % s.Len()
				if s.Live(id) {
					if err := s.SetProb(id, pr); err != nil {
						t.Fatal(err)
					}
				}
			case 1: // insert an S edge between adjacent chain elements
				i := int(arg) % 3
				f := rel.NewFact("S", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
				if _, err := s.Insert(f, pr); err != nil {
					t.Fatal(err)
				}
			case 2: // fresh constant (opens a singleton shard) or a link onto
				// the main component (merging shards: the re-shard path)
				var f rel.Fact
				if arg%2 == 0 {
					f = rel.NewFact("R", fmt.Sprintf("w%d", int(arg)%3))
				} else {
					f = rel.NewFact("S", fmt.Sprintf("w%d", int(arg)%3), fmt.Sprintf("v%d", int(arg)%4))
				}
				if _, err := s.Insert(f, pr); err != nil {
					t.Fatal(err)
				}
			case 3: // unary fact on an existing element
				f := rel.NewFact("T", fmt.Sprintf("v%d", int(arg)%4))
				if _, err := s.Insert(f, pr); err != nil {
					t.Fatal(err)
				}
			case 4: // delete
				id := int(arg) % s.Len()
				if s.Live(id) {
					if err := s.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			case 5: // revive / re-weight a known fact
				id := int(arg) % s.Len()
				fact, err := s.Fact(id)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Insert(fact, pr); err != nil {
					t.Fatal(err)
				}
			case 6: // a small batch mixing set, insert and delete
				us := []Update{{Op: OpInsert, Fact: rel.NewFact("T", fmt.Sprintf("v%d", int(arg)%4)), P: pr}}
				if id := int(arg+1) % s.Len(); s.Live(id) {
					us = append(us, Update{Op: OpSet, ID: id, P: 1 - pr})
				}
				if id := int(arg+2) % s.Len(); s.Live(id) {
					us = append(us, Update{Op: OpDelete, ID: id})
				}
				if err := s.ApplyBatch(us); err != nil {
					t.Fatal(err)
				}
			case 7: // same-key churn: delete+insert (or insert+delete) of one
				// fact inside a single batch
				id := int(arg) % s.Len()
				fact, err := s.Fact(id)
				if err != nil {
					t.Fatal(err)
				}
				var us []Update
				if s.Live(id) && arg%2 == 0 {
					us = []Update{{Op: OpDelete, ID: id}, {Op: OpInsert, Fact: fact, P: pr}}
				} else {
					us = []Update{{Op: OpInsert, Fact: fact, P: pr}, {Op: OpDelete, ID: id}}
				}
				if err := s.ApplyBatch(us); err != nil {
					t.Fatal(err)
				}
			case 8: // multi-spine batch: re-weight several facts in one commit,
				// so every view's dirty shards recompute in the single
				// shard-major sweep of commitLocked
				var us []Update
				for d := 0; d < 3; d++ {
					id := int(arg+byte(d)) % s.Len()
					if cur, err := s.Prob(id); err == nil && s.Live(id) && cur != pr {
						us = append(us, Update{Op: OpSet, ID: id, P: pr})
					}
				}
				before := s.Stats().NodesRecomputed
				if err := s.ApplyBatch(us); err != nil {
					t.Fatal(err)
				}
				if len(us) > 0 && s.Stats().NodesRecomputed == before && s.Stats().Rebuilds == 0 {
					t.Fatalf("batched set of %d facts recomputed no node tables", len(us))
				}
			case 9: // net-zero churn: tombstone + revive at the identical weight
				// in one batch — the delta pass recomputes the staged leaves,
				// finds every table unchanged, and short-circuits, so the view
				// probabilities must come out bit-identical, not just within
				// tolerance
				id := int(arg) % s.Len()
				if !s.Live(id) {
					return
				}
				cur, err := s.Prob(id)
				if err != nil {
					t.Fatal(err)
				}
				fact, err := s.Fact(id)
				if err != nil {
					t.Fatal(err)
				}
				before := make([]float64, len(views))
				for i, v := range views {
					before[i] = v.Probability()
				}
				if err := s.ApplyBatch([]Update{
					{Op: OpDelete, ID: id},
					{Op: OpInsert, Fact: fact, P: cur},
				}); err != nil {
					t.Fatal(err)
				}
				for i, v := range views {
					if got := v.Probability(); got != before[i] {
						t.Fatalf("net-zero churn moved view %d: %v -> %v", i, before[i], got)
					}
				}
			}
		}

		ops := 0
		for i := 0; i+2 < len(data) && ops < 20; i += 3 {
			step(data[i], data[i+1], float64(data[i+2])/255)
			ops++
			for vi, v := range views {
				want, err := s.Oracle(v.Query())
				if err != nil {
					t.Fatal(err)
				}
				if got := v.Probability(); math.Abs(got-want) > 1e-12 {
					t.Fatalf("op %d view %d: incremental %v, oracle %v", ops, vi, got, want)
				}
			}
			if s.NumLive() <= 12 {
				checkWorlds(t, s, views, seeded, float64(data[i+2])/255, fmt.Sprintf("op %d", ops))
			}
		}
	})
}

// checkWorlds compares every view with possible-world enumeration, then
// runs three lanes through the first view's ProbabilityBatch: no override,
// an override of a live fact inserted since registration (its shard answers
// through spliced programs when the insert was attached in place), and an
// override of a deleted fact, which must come back as a lane error. The
// first seeded ids were the facts at registration.
func checkWorlds(t *testing.T, s *Store, views []*View, seeded int, pr float64, ctx string) {
	for vi, v := range views {
		if got, want := v.Probability(), worldsOracle(t, s, v.Query(), nil); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s view %d: incremental %v, enumeration %v", ctx, vi, got, want)
		}
	}
	lanes := []map[int]float64{{}, {}, {}}
	bad := map[int]bool{}
	for id := 0; id < s.Len(); id++ {
		switch {
		case s.Live(id) && id >= seeded && len(lanes[1]) == 0:
			lanes[1][id] = pr
		case !s.Live(id) && len(lanes[2]) == 0:
			lanes[2][id] = pr
			bad[2] = true
		}
	}
	checkBatch(t, s, views[0], lanes, bad, ctx)
}
