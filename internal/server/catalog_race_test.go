package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"progxe/internal/baseline"
	"progxe/internal/feed"
	"progxe/internal/query"
	"progxe/internal/relation"
)

// catalogModel replays the catalog's change log over the fixture: every
// installation of L or R in TestCatalogMutationsRaceSubscriptions installs
// the fixture's content, so a relation's state at generation seq is the
// fixture plus its change events up to seq since its last replace or drop.
type catalogModel struct {
	events []catalogEvent
}

// at returns L and R as of generation seq.
func (m catalogModel) at(t *testing.T, seq uint64) map[string]*relation.Relation {
	t.Helper()
	tuples := map[string]map[int64]relation.Tuple{}
	reset := func(name, csv string) {
		rel, err := relation.ReadCSV(name, strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		tuples[name] = map[int64]relation.Tuple{}
		for _, tp := range rel.Tuples {
			tuples[name][tp.ID] = tp
		}
	}
	base := map[string]string{"L": tinyLeftCSV, "R": tinyRightCSV}
	for name, csv := range base {
		reset(name, csv)
	}
	for _, ev := range m.events {
		if ev.seq > seq {
			break
		}
		if _, ok := base[ev.relation]; !ok {
			continue
		}
		switch ev.kind {
		case eventDropped, eventReplaced:
			reset(ev.relation, base[ev.relation])
		case eventChange:
			if ev.change.Op == feed.OpInsert {
				tuples[ev.relation][ev.change.ID] = relation.Tuple{ID: ev.change.ID, Vals: ev.change.Vals, JoinKey: ev.change.JoinKey}
			} else {
				delete(tuples[ev.relation], ev.change.ID)
			}
		}
	}
	out := map[string]*relation.Relation{}
	for name, csv := range base {
		rel, _ := relation.ReadCSV(name, strings.NewReader(csv))
		rel.Tuples = rel.Tuples[:0]
		for _, tp := range tuples[name] {
			rel.Tuples = append(rel.Tuples, tp)
		}
		out[name] = rel
	}
	return out
}

// oraclePairs evaluates q over rels in process.
func oraclePairs(t *testing.T, q string, rels map[string]*relation.Relation) map[pair]bool {
	t.Helper()
	pq, err := query.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pq.Compile(rels[pq.From[0].Table], rels[pq.From[1].Table])
	if err != nil {
		t.Fatal(err)
	}
	res, err := baseline.Oracle(p)
	if err != nil {
		t.Fatal(err)
	}
	out := map[pair]bool{}
	for _, r := range res {
		out[pair{r.LeftID, r.RightID}] = true
	}
	return out
}

// raceSub is one subscription opened during a burst, with its net result set
// carried across rounds.
type raceSub struct {
	query string
	s     *subStream
	net   map[pair]bool
	seq   uint64 // of the last checkpoint
	ended bool
}

// TestCatalogMutationsRaceSubscriptions races subscribe admissions against
// every kind of catalog mutation at once: HTTP uploads and deletes of the
// subscribed relations and of an unrelated one, change batches to both
// sides, and library Catalog().Register calls. After each burst the catalog
// is quiesced, and every stream must either have ended with a relation_*
// record or, at every checkpoint it streamed, hold exactly the result set of
// the query over the catalog as of that checkpoint's seq (replayed from the
// change log) — and at the last one, that of a fresh /v1/query. The replayed
// catalog must equal the real one, so a mutation that bypasses the log
// fails too.
func TestCatalogMutationsRaceSubscriptions(t *testing.T) {
	rounds, opsPerWriter := 6, 12
	if testing.Short() {
		rounds, opsPerWriter = 3, 8
	}
	srv, ts := newTestServer(t, Config{MaxSubscriptions: 64})
	var subs []*raceSub
	t.Cleanup(func() { // before the server's: its Close waits for the streams
		for _, rs := range subs {
			rs.s.resp.Body.Close()
		}
	})
	var subsMu sync.Mutex
	nextID := int64(100)
	var idMu sync.Mutex
	newID := func() int64 {
		idMu.Lock()
		defer idMu.Unlock()
		nextID++
		return nextID
	}
	do := func(method, path, body string) {
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		// Changes to a relation that is momentarily gone, or deletes of ids
		// another writer removed, are refused; only a 5xx is a fault.
		if resp.StatusCode/100 == 5 {
			t.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
	}
	csvOf := map[string]string{"L": tinyLeftCSV, "R": tinyRightCSV, "X": tinyLeftCSV}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for op := 0; op < opsPerWriter; op++ {
					// Even rounds replace and drop only the unrelated X, so
					// their subscriptions live through every change batch.
					name := []string{"L", "R", "X"}[rng.IntN(3)]
					k := rng.IntN(10)
					if k >= 7 && round%2 == 0 {
						name = "X"
					}
					switch {
					case k < 7 && name != "X":
						var body bytes.Buffer
						for n := 1 + rng.IntN(3); n > 0; n-- {
							c := feed.Change{Op: feed.OpInsert, ID: newID(),
								Vals: []float64{float64(rng.IntN(25)), float64(rng.IntN(10))}, JoinKey: int64(1 + rng.IntN(2))}
							if rng.IntN(3) == 0 {
								c = feed.Change{Op: feed.OpDelete, ID: int64(1 + rng.IntN(3))}
							}
							b, _ := json.Marshal(c)
							body.Write(append(b, '\n'))
						}
						do(http.MethodPost, "/v1/relations/"+name+"/changes", body.String())
					case k < 8:
						do(http.MethodPut, "/v1/relations/"+name, csvOf[name])
					case k < 9:
						do(http.MethodDelete, "/v1/relations/"+name, "")
					default:
						rel, err := relation.ReadCSV(name, strings.NewReader(csvOf[name]))
						if err == nil {
							err = srv.Catalog().Register(rel)
						}
						if err != nil {
							t.Error(err)
						}
					}
				}
			}(rand.New(rand.NewPCG(uint64(round), uint64(w))))
		}
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				b, _ := json.Marshal(QueryRequest{Query: q})
				resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close() // a subscribed relation was momentarily gone
					if resp.StatusCode != http.StatusNotFound {
						t.Errorf("subscribe: status %d", resp.StatusCode)
					}
					return
				}
				// Records queue until the round's drain; 4096 is far more
				// than one burst's changes can produce, so the pump never
				// stalls the stream.
				s := &subStream{resp: resp, lines: make(chan map[string]any, 4096)}
				go func() {
					defer close(s.lines)
					sc := bufio.NewScanner(resp.Body)
					for sc.Scan() {
						var m map[string]any
						if json.Unmarshal(sc.Bytes(), &m) == nil {
							s.lines <- m
						}
					}
				}()
				subsMu.Lock()
				subs = append(subs, &raceSub{query: q, s: s, net: map[pair]bool{}})
				subsMu.Unlock()
			}([]string{tinyQuery, selfJoinQuery}[i%2])
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		// Quiesce: both subscribed relations present, nothing in flight.
		for name, csv := range map[string]string{"L": tinyLeftCSV, "R": tinyRightCSV} {
			if _, ok := srv.Catalog().Get(name); !ok {
				do(http.MethodPut, "/v1/relations/"+name, csv)
			}
		}
		snap, missing := srv.catalog.snapshot([2]string{"L", "R"})
		if missing != "" {
			t.Fatalf("round %d: %s missing after quiescing", round, missing)
		}
		events, _, truncated := srv.catalog.log.next(0, nil, func() bool { return true })
		if truncated {
			t.Fatalf("round %d: change log truncated", round)
		}
		model := catalogModel{events: events}
		final := model.at(t, max(snap.vers[0], snap.vers[1]))
		for i, rel := range snap.rels {
			want := final[rel.Schema.Name]
			if rel.Len() != want.Len() {
				t.Fatalf("round %d: %s holds %d tuples, the change log replays to %d", round, rel.Schema.Name, rel.Len(), want.Len())
			}
			ids := map[int64]bool{}
			for _, tp := range want.Tuples {
				ids[tp.ID] = true
			}
			for _, tp := range snap.rels[i].Tuples {
				if !ids[tp.ID] {
					t.Fatalf("round %d: %s holds id %d, the change log replays without it", round, rel.Schema.Name, tp.ID)
				}
			}
		}

		oracles := map[string]map[pair]bool{}
		oracleAt := func(q string, seq uint64) map[pair]bool {
			k := fmt.Sprintf("%d %s", seq, q)
			if oracles[k] == nil {
				oracles[k] = oraclePairs(t, q, model.at(t, seq))
			}
			return oracles[k]
		}
		for si, rs := range subs {
			// The seq of the last event on a relation the query reads.
			target := snap.vers[0]
			if rs.query == tinyQuery {
				target = max(target, snap.vers[1])
			}
		drain:
			for !rs.ended && rs.seq < target {
				var rec map[string]any
				select {
				case m, ok := <-rs.s.lines:
					if !ok {
						t.Fatalf("round %d, subscription %d: stream ended without a terminal record", round, si)
					}
					rec = m
				case <-time.After(15 * time.Second):
					t.Fatalf("round %d, subscription %d: no checkpoint at or past seq %d", round, si, target)
				}
				switch rec["type"] {
				case "result":
					rs.net[pair{int64(rec["leftId"].(float64)), int64(rec["rightId"].(float64))}] = true
				case "retract":
					delete(rs.net, pair{int64(rec["leftId"].(float64)), int64(rec["rightId"].(float64))})
				case "checkpoint":
					seq := uint64(rec["seq"].(float64))
					rs.seq = seq
					if live := int(rec["live"].(float64)); live != len(rs.net) {
						t.Fatalf("round %d, subscription %d: checkpoint %d live=%d, net set %d", round, si, seq, live, len(rs.net))
					}
					if want := oracleAt(rs.query, seq); !equalPairs(want, rs.net) {
						t.Fatalf("round %d, subscription %d (%s): checkpoint %d net set %v, catalog at %d gives %v",
							round, si, rs.query[:40], seq, rs.net, seq, want)
					}
					if seq >= target {
						requireFresh(t, ts, rs.query, fmt.Sprintf("round %d, subscription %d", round, si), rs.net)
					}
				case "error":
					kind := map[any]eventKind{errRelationDropped: eventDropped, errRelationReplaced: eventReplaced}
					k, ok := kind[rec["code"]]
					if !ok {
						t.Fatalf("round %d, subscription %d: terminal record %v", round, si, rec)
					}
					// The end must answer a mutation of a subscribed relation
					// after the last checkpoint.
					if !slices.ContainsFunc(events, func(ev catalogEvent) bool {
						return ev.kind == k && ev.seq > rs.seq && (ev.relation == "L" || ev.relation == "R" && rs.query == tinyQuery)
					}) {
						t.Fatalf("round %d, subscription %d: %v after checkpoint %d answers no mutation", round, si, rec, rs.seq)
					}
					rs.ended = true
					rs.s.resp.Body.Close()
					break drain
				}
			}
		}
	}
	for _, rs := range subs {
		rs.s.resp.Body.Close()
	}
	waitForStats(t, srv, "every subscription to detach", func(s Snapshot) bool { return s.SubscriptionsLive == 0 })
}

func equalPairs(a, b map[pair]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}
