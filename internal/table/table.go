// Package table defines the virtual-table row representation shared by
// the extractor, the STORM services, and the cluster wire protocol, plus
// a schema-directed fixed-width binary codec for rows.
package table

import (
	"fmt"

	"datavirt/internal/schema"
)

// Row is one row of a virtual table: values in schema order.
type Row = []schema.Value

// Codec encodes and decodes rows of a fixed schema. Rows travel as the
// concatenation of their values' little-endian encodings; both sides of
// a connection know the schema, so no per-row framing is needed.
type Codec struct {
	kinds    []schema.Kind
	rowBytes int
}

// NewCodec builds a codec for the given schema.
func NewCodec(s *schema.Schema) *Codec {
	kinds := make([]schema.Kind, s.NumAttrs())
	total := 0
	for i := 0; i < s.NumAttrs(); i++ {
		kinds[i] = s.Attr(i).Kind
		total += kinds[i].Size()
	}
	return &Codec{kinds: kinds, rowBytes: total}
}

// RowBytes returns the encoded size of one row.
func (c *Codec) RowBytes() int { return c.rowBytes }

// NumCols returns the number of columns.
func (c *Codec) NumCols() int { return len(c.kinds) }

// Append encodes row onto dst and returns the extended slice. The row
// must match the codec's schema arity; kinds are coerced to the schema.
func (c *Codec) Append(dst []byte, row Row) ([]byte, error) {
	if len(row) != len(c.kinds) {
		return dst, fmt.Errorf("table: row has %d values, schema has %d columns", len(row), len(c.kinds))
	}
	for i, v := range row {
		if v.Kind != c.kinds[i] {
			// Coerce: keep the numeric value, adopt the schema kind.
			v = schema.KindValue(c.kinds[i], v.AsFloat())
		}
		dst = schema.EncodeValue(dst, v)
	}
	return dst, nil
}

// Decode decodes one row from the start of b into dst (reused if it has
// capacity) and returns the row and the remaining bytes.
func (c *Codec) Decode(dst Row, b []byte) (Row, []byte, error) {
	if len(b) < c.rowBytes {
		return nil, b, fmt.Errorf("table: short row: have %d bytes, need %d", len(b), c.rowBytes)
	}
	if cap(dst) < len(c.kinds) {
		dst = make(Row, len(c.kinds))
	}
	dst = dst[:len(c.kinds)]
	off := 0
	for i, k := range c.kinds {
		dst[i] = schema.DecodeValue(k, b[off:])
		off += k.Size()
	}
	return dst, b[c.rowBytes:], nil
}

// DecodeAll decodes every row in b; len(b) must be a multiple of
// RowBytes. The rows share one freshly allocated value slab, each a
// full slice expression of it, so they may be retained independently
// and appending to one cannot overwrite its neighbour.
func (c *Codec) DecodeAll(b []byte) ([]Row, error) {
	if c.rowBytes == 0 || len(b)%c.rowBytes != 0 {
		return nil, fmt.Errorf("table: buffer of %d bytes is not a whole number of %d-byte rows", len(b), c.rowBytes)
	}
	n, w := len(b)/c.rowBytes, len(c.kinds)
	slab := make([]schema.Value, n*w)
	out := make([]Row, n)
	for i := range out {
		var err error
		out[i], b, err = c.Decode(slab[i*w:(i+1)*w:(i+1)*w], b)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CopyRows returns a copy of rows whose values live in one exactly
// sized slab, each row a full slice expression of it: the copies stay
// valid however the originals are reused, and appending to one copy
// reallocates it instead of clobbering the next.
func CopyRows(rows []Row) []Row {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	slab := make([]schema.Value, n)
	out := make([]Row, len(rows))
	off := 0
	for i, r := range rows {
		end := off + copy(slab[off:], r)
		out[i] = slab[off:end:end]
		off = end
	}
	return out
}

// FormatRow renders a row for display: values separated by tabs.
func FormatRow(row Row) string {
	out := ""
	for i, v := range row {
		if i > 0 {
			out += "\t"
		}
		out += v.String()
	}
	return out
}

// RowsEqual compares two rows value-wise (numeric comparison).
func RowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}
