package main

import (
	"sync"
	"sync/atomic"
	"time"

	"datavirt/internal/obs"
)

// Spans of the engine's own stages arrive through obs.Tracer, keyed on
// query text. side 0 is the engine the client calls (the local service
// or the cluster coordinator); side 1 is the cluster's node servers.
const (
	sideClient = iota
	sideNode
	numSides
)

// stageTimes accumulates one query's stage durations per side.
type stageTimes [numSides][7]time.Duration

var stageIndex = map[obs.Stage]int{
	obs.StagePlan: 0, obs.StageIndex: 1, obs.StageQueue: 2, obs.StageExtract: 3,
	obs.StageFilter: 4, obs.StageAggregate: 5, obs.StageNet: 6,
}

func (s *stageTimes) get(side int, st obs.Stage) time.Duration { return s[side][stageIndex[st]] }

// sum adds one stage over both sides.
func (s *stageTimes) sum(st obs.Stage) time.Duration {
	return s.get(sideClient, st) + s.get(sideNode, st)
}

// traceStore collects stage spans per in-flight query text. Two equal
// texts are never in flight at once (begin refuses the second), so a
// text identifies one query while it runs. Spans that match no
// in-flight query are counted as orphans.
type traceStore struct {
	enabled atomic.Bool

	mu       sync.Mutex
	inFlight map[string]*stageTimes //dvlint:guardedby mu
	orphans  int64                  //dvlint:guardedby mu
}

func newTraceStore() *traceStore {
	return &traceStore{inFlight: map[string]*stageTimes{}}
}

// begin registers a query under its text and its SQL as written (the
// engine reports some stages under each); false means it is already
// in flight.
func (t *traceStore) begin(q *stmt) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, busy := t.inFlight[q.text]; busy {
		return false
	}
	if _, busy := t.inFlight[q.sql]; busy {
		return false
	}
	st := &stageTimes{}
	t.inFlight[q.text], t.inFlight[q.sql] = st, st
	return true
}

// end unregisters a query and returns its stage times.
func (t *traceStore) end(q *stmt) stageTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.inFlight[q.text]
	delete(t.inFlight, q.text)
	delete(t.inFlight, q.sql)
	if st == nil {
		return stageTimes{}
	}
	return *st
}

func (t *traceStore) record(side int, text string, st obs.Stage, d time.Duration) {
	i, ok := stageIndex[st]
	if !ok || !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.inFlight[text]; q != nil {
		q[side][i] += d
	} else {
		t.orphans++
	}
}

// stageTracer is the obs.Tracer one side of the engine reports to.
type stageTracer struct {
	store *traceStore
	side  int
}

func (stageTracer) StageStart(string, obs.Stage) {}

func (s stageTracer) StageEnd(query string, st obs.Stage, d time.Duration, _ error) {
	s.store.record(s.side, query, st, d)
}

// layerTimes sums the per-layer time of the traced queries.
type layerTimes struct {
	queries     int64
	aggQueries  int64
	wall        time.Duration // client time from issue to drained cursor
	parse       time.Duration
	prepare     time.Duration
	drain       time.Duration
	firstRow    time.Duration
	plan, index time.Duration
	extractSelf time.Duration
	filter, agg time.Duration
	queue, net  time.Duration
	explained   time.Duration
	rowsScanned int64
	aggRows     int64 // rows scanned by aggregate queries
	redispatch  int64
	shed        int64
}

func (l *layerTimes) add(o *layerTimes) {
	l.queries += o.queries
	l.aggQueries += o.aggQueries
	l.wall += o.wall
	l.parse += o.parse
	l.prepare += o.prepare
	l.drain += o.drain
	l.firstRow += o.firstRow
	l.plan += o.plan
	l.index += o.index
	l.extractSelf += o.extractSelf
	l.filter += o.filter
	l.agg += o.agg
	l.queue += o.queue
	l.net += o.net
	l.explained += o.explained
	l.rowsScanned += o.rowsScanned
	l.aggRows += o.aggRows
	l.redispatch += o.redispatch
	l.shed += o.shed
}
