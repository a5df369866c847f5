package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"testing"

	"repro/internal/pdb"
)

// chainFacts is the instance of TestBatchAlongsideWriters: an R/S/T chain
// over v0..v4 whose T(v2) and T(v4) are missing, so inserting either one
// attaches in place and completes a match. Matches of the hard query stay
// fact-disjoint, so its probability has the closed form
// 1 - prod_i (1 - R(vi) S(vi,vi+1) T(vi+1)), with absent facts at 0.
var chainFacts = []string{"R(v0)", "S(v0,v1)", "T(v1)", "R(v1)", "S(v1,v2)", "R(v2)", "S(v2,v3)", "T(v3)", "R(v3)", "S(v3,v4)"}

// chainState is the store as the model sees it: fact weights keyed by fact
// text (an absent or deleted fact weighs 0) and the live fact ids.
type chainState struct {
	w    map[string]float64
	live map[int]bool
}

// chainModel replays acknowledged commits to give the state at any seq.
type chainModel struct {
	ids     map[int]string // store id -> fact
	commits map[uint64]func(*chainState)
}

func (m *chainModel) stateAt(seq uint64) chainState {
	st := chainState{w: map[string]float64{}, live: map[int]bool{}}
	for id, f := range chainFacts {
		st.w[f] = 0.5
		st.live[id] = true
	}
	for s := uint64(1); s <= seq; s++ {
		m.commits[s](&st)
	}
	return st
}

func chainClosedForm(w map[string]float64) float64 {
	none := 1.0
	for i := 0; i < 4; i++ {
		none *= 1 - w[fmt.Sprintf("R(v%d)", i)]*w[fmt.Sprintf("S(v%d,v%d)", i, i+1)]*w[fmt.Sprintf("T(v%d)", i+1)]
	}
	return 1 - none
}

func post(url string, body, into any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// TestBatchAlongsideWriters runs /batch clients beside /update writers whose
// inserts attach facts in place, so lanes are answered on spliced shard
// programs while commits land. Every lane is checked against the closed
// form at the seq its response carries, rebuilt from the acknowledged
// commits; a lane naming a fact that is not live at that seq must fail.
// Run under -race in CI.
func TestBatchAlongsideWriters(t *testing.T) {
	tid := pdb.NewTID()
	for i := 0; i < 4; i++ {
		tid.AddFact(0.5, "R", fmt.Sprintf("v%d", i))
		tid.AddFact(0.5, "S", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
		if i%2 == 0 {
			tid.AddFact(0.5, "T", fmt.Sprintf("v%d", i+1))
		}
	}
	s, ts := newTestServer(t, tid, Config{})
	const hard = "R(?x) & S(?x,?y) & T(?y)"
	m := &chainModel{ids: map[int]string{}, commits: map[uint64]func(*chainState){}}
	for id := 0; id < tid.NumFacts(); id++ {
		m.ids[id] = tid.Fact(id).String()
	}
	if m.ids[len(chainFacts)-1] != chainFacts[len(chainFacts)-1] {
		t.Fatalf("instance facts %v, model %v", m.ids, chainFacts)
	}
	var br batchResponse
	if err := post(ts.URL+"/batch", batchRequest{Query: hard, Assignments: []map[string]float64{{}}}, &br); err != nil {
		t.Fatal(err)
	}
	prepares := s.Stats().Prepares
	n := tid.NumFacts()
	// The structural writer inserts T(v2) (id n), U(v1) (id n+1, outside the
	// query) and T(v4) (id n+2), then churns T(v2) by delete and revive.
	structural := []updateOp{
		{Op: "insert", Rel: "T", Args: []string{"v2"}, P: 0.7},
		{Op: "insert", Rel: "U", Args: []string{"v1"}, P: 0.3},
		{Op: "insert", Rel: "T", Args: []string{"v4"}, P: 0.9},
		{Op: "delete", ID: ip(n)},
		{Op: "insert", Rel: "T", Args: []string{"v2"}, P: 0.2},
		{Op: "set", ID: ip(n + 2), P: 0.4},
		{Op: "delete", ID: ip(n + 2)},
	}

	var mu sync.Mutex // guards m while writers record their commits
	record := func(seq uint64, apply func(*chainState)) error {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := m.commits[seq]; dup {
			return fmt.Errorf("two acknowledged updates share seq %d", seq)
		}
		m.commits[seq] = apply
		return nil
	}
	type answer struct {
		lanes []map[string]float64
		resp  batchResponse
	}
	var answers []answer
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, op := range structural {
			var ur updateResponse
			if err := post(ts.URL+"/update", map[string]any{"updates": []updateOp{op}}, &ur); err != nil {
				errs <- err
				return
			}
			id := -1
			if op.Op == "insert" {
				id = ur.Inserted[0].ID
				mu.Lock()
				m.ids[id] = ur.Inserted[0].Fact
				mu.Unlock()
			} else {
				id = *op.ID
			}
			mu.Lock()
			f := m.ids[id]
			mu.Unlock()
			alive, p := op.Op != "delete", op.P
			if err := record(ur.Seq, func(st *chainState) { st.w[f], st.live[id] = p, alive }); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 30; i++ {
			id := r.Intn(n)
			p := float64(r.Intn(11)) / 10
			var ur updateResponse
			if err := post(ts.URL+"/update", map[string]any{"updates": []updateOp{{Op: "set", ID: ip(id), P: p}}}, &ur); err != nil {
				errs <- err
				return
			}
			f := chainFacts[id]
			if err := record(ur.Seq, func(st *chainState) { st.w[f] = p }); err != nil {
				errs <- err
				return
			}
		}
	}()
	var amu sync.Mutex
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(10 + c)))
			for i := 0; i < 25; i++ {
				lanes := make([]map[string]float64, 4)
				for l := range lanes {
					lanes[l] = map[string]float64{}
					for k := r.Intn(3); k > 0; k-- {
						lanes[l][fmt.Sprint(r.Intn(n+3))] = float64(r.Intn(11)) / 10
					}
				}
				var resp batchResponse
				if err := post(ts.URL+"/batch", batchRequest{Query: hard, Assignments: lanes}, &resp); err != nil {
					errs <- err
					return
				}
				amu.Lock()
				answers = append(answers, answer{lanes, resp})
				amu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The commits acknowledged are exactly seqs 1..N, so stateAt can replay
	// any prefix.
	seqs := make([]uint64, 0, len(m.commits))
	for seq := range m.commits {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("acknowledged seqs %v are not 1..%d", seqs, len(seqs))
		}
	}
	if st := s.Store().Stats(); st.Attached < 3 || st.Rebuilds != 0 {
		t.Fatalf("inserts were not all attached in place: %+v", st)
	}
	if got := s.Stats().Prepares; got != prepares {
		t.Errorf("prepares went %d -> %d under writes", prepares, got)
	}
	for _, a := range answers {
		st := m.stateAt(a.resp.Seq)
		for l, lane := range a.lanes {
			w := map[string]float64{}
			for f, p := range st.w {
				w[f] = p
			}
			dead := false
			for key, p := range lane {
				var id int
				fmt.Sscan(key, &id)
				dead = dead || !st.live[id]
				w[m.ids[id]] = p
			}
			failed := a.resp.Errors != nil && a.resp.Errors[l] != ""
			if dead != failed {
				t.Fatalf("seq %d lane %v: failed %v, names a dead fact %v (%v)", a.resp.Seq, lane, failed, dead, a.resp.Errors)
			}
			if failed {
				continue
			}
			if want := chainClosedForm(w); math.Abs(a.resp.Probabilities[l]-want) > 1e-12 {
				t.Fatalf("seq %d lane %v = %v, closed form %v", a.resp.Seq, lane, a.resp.Probabilities[l], want)
			}
		}
	}
}
