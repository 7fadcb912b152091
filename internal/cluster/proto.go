// Package cluster executes virtual-table queries across the nodes of a
// (simulated) cluster: one node server per cluster node, each owning the
// files whose storage directories name it, and a coordinator that fans a
// query out, merges the tuple streams, and optionally routes tuples to
// client processors using the partition generated at the service side —
// the deployment the paper evaluates on 1–16 nodes, grown into a
// concurrent serving system: many in-flight queries are multiplexed
// over a small set of persistent node connections.
//
// The wire protocol (version 3) is length-prefixed binary frames over
// TCP, every frame tagged with the query ID it belongs to so one
// connection carries many queries at once:
//
//	frame   = len uint32 (LE) | type byte | qid uint32 (LE) | payload
//	'Q'     = query request (JSON header), client → node
//	'C'     = cancel query qid (empty payload), client → node
//	'W'     = flow-control credit: uint32 window bytes, client → node
//	'R'     = row batch: destID uint32 | rowCount uint32 | rows (codec)
//	'A'     = partial aggregates (query.AggState wire encoding)
//	'D'     = done: JSON stats trailer (terminal)
//	'E'     = error: UTF-8 message (terminal)
//	'B'     = busy: the node shed the query at admission (terminal)
//
// Rows travel in the fixed-width schema codec of internal/table; both
// ends derive the row layout from the query's SELECT list against the
// shared descriptor. Aggregate queries (GROUP BY / aggregate
// functions) ship no rows at all: each leg evaluates partial
// aggregates over its blocks and streams them in 'A' frames — each an
// independently mergeable group of partials — which the coordinator
// merges and finalizes, so result traffic scales with group count
// rather than row count. Each query has a byte-granular flow-control
// window: the node only sends row or aggregate batches against credit
// the client has granted ('Q' carries the initial window, 'W'
// replenishes it), so one slow consumer cannot monopolize a shared
// connection.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"datavirt/internal/extractor"
	"datavirt/internal/storm"
)

const (
	frameQuery  = 'Q'
	frameCancel = 'C'
	frameWindow = 'W'
	frameRows   = 'R'
	frameAgg    = 'A'
	frameDone   = 'D'
	frameError  = 'E'
	frameBusy   = 'B'

	// maxFrame guards against corrupt length prefixes.
	maxFrame = 64 << 20

	// protocolVersion is checked per query request. Version 2 added
	// query-ID-tagged frames (connection multiplexing), flow-control
	// windows, and the cancel/busy frames; version 3 added the 'A'
	// partial-aggregate frame (push-down aggregation); version 4 added
	// the scaled large-input expansion to exact-sum partials.
	protocolVersion = 4

	// batchRows is the number of rows per 'R' frame.
	batchRows = 512

	// defaultWindowBytes is the flow-control credit a query starts with
	// when the request does not name one.
	defaultWindowBytes = 1 << 20

	// frameHeaderLen is len + type + qid.
	frameHeaderLen = 9
)

// ErrOverloaded is the typed load-shedding error: a node whose
// admission queue is full rejects the query with a 'B' busy frame
// (the 429 of this protocol) instead of letting it pile up. The
// coordinator retries shed legs with backoff; when retries are
// exhausted the query fails with an error matching this via errors.Is.
var ErrOverloaded = errors.New("cluster: node overloaded, query shed")

// Request is the JSON payload of a 'Q' frame.
type Request struct {
	Version int
	// SQL is the query text.
	SQL string
	// Partition describes the client program's distribution; the node
	// computes each tuple's destination (partition generation at the
	// server). A zero NumDests means a single unpartitioned stream.
	Partition storm.PartitionSpec
	// Parallel asks the node to extract with a worker pool.
	Parallel bool
	// TimeoutMS bounds the node-side execution in milliseconds; the
	// coordinator derives it from its context deadline so a node keeps
	// no work in flight after the client has given up. Zero means no
	// server-side bound.
	TimeoutMS int64 `json:",omitempty"`
	// WindowBytes is the initial flow-control credit: the node may send
	// at most this many row-batch payload bytes before waiting for 'W'
	// frames. Zero means defaultWindowBytes.
	WindowBytes int64 `json:",omitempty"`
	// Weight is the query's share under the node's weighted-fair
	// scheduler (relative to other in-flight queries on the node;
	// 0 means 1).
	Weight int `json:",omitempty"`
	// MaxResultBytes, when positive, is the query's byte budget: a leg
	// that streams more row-batch bytes than this is aborted with an
	// error instead of saturating the wire indefinitely.
	MaxResultBytes int64 `json:",omitempty"`
	// NodeFilter names the storage partition (by its primary node) the
	// leg should extract. Empty means the serving node's own partition
	// — the only shape before replica sets existed, so the field is
	// wire-compatible. A coordinator failing a leg over sets this to
	// the partition's primary so a standby replica extracts the same
	// files; the node rejects names whose partition it does not hold.
	NodeFilter string `json:",omitempty"`
}

// Trailer is the JSON payload of a 'D' frame.
type Trailer struct {
	Stats extractor.Stats
	Rows  int64
	// ExtractNS is the node's extraction wall time in nanoseconds; the
	// coordinator keeps the maximum across nodes (the straggler).
	ExtractNS int64 `json:",omitempty"`
	// PlanCacheHits/Misses report whether this leg's prepare hit the
	// node's semantic plan cache; the coordinator sums them into the
	// query's stats alongside its own prepare.
	PlanCacheHits   int64 `json:",omitempty"`
	PlanCacheMisses int64 `json:",omitempty"`
	// Queued is 1 when this leg waited in the node's admission queue
	// before running; QueueNS is that wait in nanoseconds.
	Queued  int64 `json:",omitempty"`
	QueueNS int64 `json:",omitempty"`
	// SentBytes is the result payload the leg streamed ('R' or 'A'
	// frame bodies) — the coordinator-side transfer cost a pushed-down
	// aggregate keeps proportional to group count, not row count.
	SentBytes int64 `json:",omitempty"`
}

// isDataFrame reports whether typ carries result data subject to flow
// control ('R' row batches and 'A' partial aggregates); every other
// server frame is terminal.
func isDataFrame(typ byte) bool { return typ == frameRows || typ == frameAgg }

// writeFrame writes one frame tagged with qid.
func writeFrame(w io.Writer, typ byte, qid uint32, payload []byte) error {
	var hdr [frameHeaderLen]byte
	if len(payload) > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:9], qid)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// rowsFrameEncoder writes 'R' frames — destID | rowCount | rows —
// without assembling the payload in a temporary: the 17-byte header
// (length prefix, type, query ID, destination, count) is encoded into
// the reused per-stream buffer and the row body is written straight
// from the caller's batch buffer, so steady-state row streaming
// allocates nothing per frame.
type rowsFrameEncoder struct {
	hdr [frameHeaderLen + 8]byte
}

func (e *rowsFrameEncoder) writeRowsFrame(w io.Writer, qid, dest, count uint32, body []byte) error {
	if 8+len(body) > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", 8+len(body))
	}
	binary.LittleEndian.PutUint32(e.hdr[0:4], uint32(8+len(body)))
	e.hdr[4] = frameRows
	binary.LittleEndian.PutUint32(e.hdr[5:9], qid)
	binary.LittleEndian.PutUint32(e.hdr[9:13], dest)
	binary.LittleEndian.PutUint32(e.hdr[13:17], count)
	if _, err := w.Write(e.hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// encodeRowsBody prepends destID | rowCount to a row batch, producing
// the payload of an 'R' frame (used by the node-side scheduler, which
// queues encoded payloads rather than writing them inline).
func encodeRowsBody(dest, count uint32, rows []byte) []byte {
	body := make([]byte, 8+len(rows))
	binary.LittleEndian.PutUint32(body[0:4], dest)
	binary.LittleEndian.PutUint32(body[4:8], count)
	copy(body[8:], rows)
	return body
}

// readFrame reads one frame, reusing buf when it has capacity.
func readFrame(r io.Reader, buf []byte) (typ byte, qid uint32, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("cluster: frame length %d exceeds limit", n)
	}
	qid = binary.LittleEndian.Uint32(hdr[5:9])
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, fmt.Errorf("cluster: short frame: %w", err)
	}
	return hdr[4], qid, buf, nil
}

// writeJSONFrame marshals v into a frame.
func writeJSONFrame(w io.Writer, typ byte, qid uint32, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, qid, b)
}

// windowPayload encodes a 'W' credit grant.
func windowPayload(credit uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], credit)
	return b[:]
}

// parseWindow decodes a 'W' payload.
func parseWindow(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("cluster: window frame of %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), nil
}
