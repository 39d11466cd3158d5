package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"progxe"
	"progxe/internal/core"
	"progxe/internal/core/sched"
	"progxe/internal/feed"
	"progxe/internal/grid"
	"progxe/internal/join"
)

// Layer cells call one layer's public function directly on the workload's
// own data, inside a benchmark-owned span, a few times over; the metric is
// the median. They run in the traced pass only.

const (
	cellRounds   = 3       // repetitions of a relation-sized cell
	mapPairs     = 1000000 // most join pairs the mapping cell evaluates
	compileRuns  = 20      // repetitions of the parse+compile cell
	feedLines    = 20000   // change lines the feed cell parses per round
	stubRankBits = 20
)

// timeCell runs fn rounds times under spans named name and returns the
// median duration in milliseconds.
func timeCell(tr *tracer, name string, rounds int, fn func()) float64 {
	ms := make([]float64, rounds)
	for i := range ms {
		id := tr.begin(name, -1, tr.newOp())
		start := time.Now()
		fn()
		ms[i] = msSince(start)
		tr.end(id)
	}
	return median(ms)
}

// layerCells measures every layer below the engine on the workload's data.
func layerCells(rep *report, tr *tracer, w workload, in *inputs, cfg config) {
	rep.set("datagen.generate_ms", timeCell(tr, "datagen.generate", cellRounds, func() {
		if _, _, err := progxe.GeneratePair(w.spec(cfg.seed)); err != nil {
			rep.op(err)
		}
	}), cellRounds)

	sql := w.hotQuery()
	rep.set("query.parse_compile_us", 1000*timeCell(tr, "query.parse_compile", compileRuns, func() {
		if _, err := compile(sql, in.r, in.t); err != nil {
			rep.op(err)
		}
	}), compileRuns)

	// Join substrate over the full relations; the emit callback only counts,
	// and keeps an evenly strided sample of pairs for the mapping cell.
	p := in.problem
	lt, rt := p.Left.Tuples, p.Right.Tuples
	rows := join.Cardinality(lt, rt)
	stride := (rows + mapPairs - 1) / mapPairs
	if stride < 1 {
		stride = 1
	}
	var pairs []join.Pair
	rep.set("join.hash_ms", timeCell(tr, "join.hash", cellRounds, func() {
		pairs = pairs[:0]
		n := 0
		join.Hash(lt, rt, func(l, r int) bool {
			if n%stride == 0 {
				pairs = append(pairs, join.Pair{L: l, R: r})
			}
			n++
			return true
		})
	}), cellRounds)
	rep.set("join.rows", float64(rows), 1)

	if len(pairs) > 0 {
		dst := make([]float64, p.Maps.Dims())
		ms := timeCell(tr, "mapping.map", cellRounds, func() {
			for _, pr := range pairs {
				p.Maps.Map(lt[pr.L].Vals, rt[pr.R].Vals, dst)
			}
		})
		rep.set("mapping.map_ns_per_row", ms*1e6/float64(len(pairs)), len(pairs))
	}

	// Look-ahead geometry: the pruning sweep over every candidate region's
	// enclosure, and the scheduler over the surviving regions' boxes.
	rects, err := core.PlanRects(p, w.opts)
	if err != nil {
		rep.op(fmt.Errorf("core.PlanRects: %w", err))
		return
	}
	rep.set("grid.dominated_rects_ms", timeCell(tr, "grid.dominated_rects", cellRounds, func() {
		grid.DominatedRects(rects)
	}), cellRounds)
	rep.set("grid.rects", float64(len(rects)), 1)

	boxes, dims, err := core.PlanBoxes(p, w.opts)
	if err != nil {
		rep.op(fmt.Errorf("core.PlanBoxes: %w", err))
		return
	}
	var counters sched.Counters
	rep.set("sched.setup_release_ms", timeCell(tr, "sched.setup_release", cellRounds, func() {
		s := sched.NewProgressive(boxes, dims, stubRanker, 0)
		for {
			id, _, ok := s.Next()
			if !ok {
				break
			}
			s.Complete(id)
		}
		counters = s.Counters()
	}), cellRounds)
	rep.set("sched.edges", float64(counters.Edges), 1)
	rep.set("sched.rank_refreshes", float64(counters.RankRefreshes), 1)

	feedCell(rep, tr, w, in)
}

// paperCell runs the workload once at the paper's scale, checks the answer,
// and reports what its consumer saw. One operation, so the numbers carry the
// host's mood of the moment; harness.calib_ms beside them says what it was.
func paperCell(rep *report, tr *tracer, w workload, cfg config) {
	pw := w.atPaperScale()
	in, err := pw.generate(cfg.seed)
	if err != nil {
		rep.op(err)
		return
	}
	runtime.GC()
	sink := &keepSink{}
	id := tr.begin("paper.op", -1, tr.newOp())
	sink.start = time.Now()
	st, err := progxe.RunContext(context.Background(), progxe.New(pw.opts), in.problem, sink)
	total := msSince(sink.start)
	tr.end(id)
	if err == nil {
		err = checkAnswer(in.problem, sink.results)
	}
	rep.op(err)
	if err != nil {
		return
	}
	rep.set("paper.total_ms", total, 1)
	rep.set("paper.ttfr_ms", sink.first, 1)
	rep.set("paper.join_results", float64(st.JoinResults), 1)
	rep.set("paper.results", float64(st.ResultCount), 1)
}

// keepSink retains an answer and the time of its first result.
type keepSink struct {
	start   time.Time
	first   float64
	results []progxe.Result
}

func (s *keepSink) Emit(r progxe.Result) {
	if len(s.results) == 0 {
		s.first = msSince(s.start)
	}
	s.results = append(s.results, r)
}

// stubRanker stands in for the engine's benefit model: deterministic, rich
// in ties, free of engine state.
func stubRanker(id int) float64 {
	x := uint64(id)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return float64(x % (1 << stubRankBits))
}

// feedCell parses change lines shaped like the ones live_churn posts.
func feedCell(rep *report, tr *tracer, w workload, in *inputs) {
	lines := make([]string, feedLines)
	for i := range lines {
		t := in.r.Tuples[i%len(in.r.Tuples)]
		if i%2 == 0 {
			lines[i] = insertLine(int64(w.n+i), t.JoinKey, t.Vals)
		} else {
			lines[i] = deleteLine(t.ID)
		}
	}
	ms := timeCell(tr, "feed.parse_line", cellRounds, func() {
		for _, l := range lines {
			if _, err := feed.ParseLine(l); err != nil {
				rep.op(err)
				return
			}
		}
	})
	rep.set("feed.parse_line_ns", ms*1e6/feedLines, feedLines)
}
