package cluster

import (
	"errors"

	"datavirt/internal/table"
)

// defaultStageBytes is the FailoverStageBytes default: how much of a
// replicated leg's result payload the coordinator holds back before
// committing it to the merge (and giving up replayability).
const defaultStageBytes = 8 << 20

// errLegStalled fails a leg whose stream made no frame progress
// within LegStallAfter. It counts against the node's health, and on a
// replicated partition the coordinator re-dispatches the leg to a
// standby.
var errLegStalled = errors.New("cluster: leg stalled: no frame progress within LegStallAfter")

// legStage buffers a replicated leg's results until the leg commits —
// its done trailer arrives, or the staged bytes exceed the budget —
// so a leg whose serving node dies mid-stream can be replayed on a
// standby replica without delivering any row or partial twice: until
// commit, nothing has reached the merge, and after commit a failure
// is final (runLeg checks committed before re-dispatching).
//
// No lock guards the fields: within one dispatch the claim CAS in
// legStream lets exactly one stream deliver, and across dispatches
// runLeg only starts the next after legHedged has returned (the
// result-channel receive orders the previous stream's last delivery
// before it). Queries are either row or aggregate, never both, so a
// stage holds 'R' batches or 'A' partials, not a mix.
type legStage struct {
	budget   int64
	rowBytes int64 // wire bytes per row, for budget accounting
	onBatch  func(dest int, rows []table.Row)
	onAgg    func(payload []byte) error

	staged    []stagedItem
	bytes     int64
	committed bool
}

// stagedItem is one withheld delivery: a decoded row batch (agg nil)
// or an encoded partial-aggregate payload. Both are safe to retain as
// they are — the demux reader copies every frame payload, and
// DecodeAll decodes each frame into its own freshly allocated slab,
// which no later frame reuses.
type stagedItem struct {
	dest int
	rows []table.Row
	agg  []byte
}

func newLegStage(budget, rowBytes int64, onBatch func(dest int, rows []table.Row), onAgg func(payload []byte) error) *legStage {
	return &legStage{budget: budget, rowBytes: rowBytes, onBatch: onBatch, onAgg: onAgg}
}

// batch stages (or, once committed, passes through) one row batch.
// A budget overflow commits everything staged so far: memory stays
// bounded at the price of making the leg non-replayable.
func (g *legStage) batch(dest int, rows []table.Row) {
	if g.committed {
		g.onBatch(dest, rows)
		return
	}
	g.staged = append(g.staged, stagedItem{dest: dest, rows: rows})
	g.bytes += int64(len(rows)) * g.rowBytes
	if g.bytes >= g.budget {
		g.commit() //nolint:errcheck — row-only path; commit errors come from onAgg, never reached here
	}
}

// agg stages (or passes through) one partial-aggregate payload. Only
// a commit can fail — the downstream merge rejecting a payload — and
// that error aborts the leg like any onAgg failure.
func (g *legStage) agg(payload []byte) error {
	if g.committed {
		return g.onAgg(payload)
	}
	g.staged = append(g.staged, stagedItem{agg: payload})
	g.bytes += int64(len(payload))
	if g.bytes >= g.budget {
		return g.commit()
	}
	return nil
}

// commit releases everything staged to the merge and makes the leg
// final: from here on deliveries pass straight through and a failure
// can no longer be failed over.
func (g *legStage) commit() error {
	g.committed = true
	staged := g.staged
	g.staged = nil
	for _, it := range staged {
		if it.agg != nil {
			if err := g.onAgg(it.agg); err != nil {
				return err
			}
		} else {
			g.onBatch(it.dest, it.rows)
		}
	}
	return nil
}

// reset discards an uncommitted partial stream so the leg can be
// replayed from scratch on another replica. Callers must check
// committed first.
func (g *legStage) reset() {
	g.staged = nil
	g.bytes = 0
}
