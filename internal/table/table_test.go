package table

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datavirt/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.MustNew("T", []schema.Attribute{
		{Name: "REL", Kind: schema.Short},
		{Name: "TIME", Kind: schema.Int},
		{Name: "SOIL", Kind: schema.Float},
		{Name: "P", Kind: schema.Double},
	})
}

func TestCodecBasics(t *testing.T) {
	c := NewCodec(testSchema())
	if c.RowBytes() != 2+4+4+8 {
		t.Fatalf("RowBytes = %d", c.RowBytes())
	}
	if c.NumCols() != 4 {
		t.Fatalf("NumCols = %d", c.NumCols())
	}
	row := Row{
		{Kind: schema.Short, Int: 3}, schema.IntValue(1042),
		schema.FloatValue(0.75), schema.DoubleValue(-1.5),
	}
	b, err := c.Append(nil, row)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if len(b) != c.RowBytes() {
		t.Fatalf("encoded %d bytes", len(b))
	}
	got, rest, err := c.Decode(nil, b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("Decode: %v rest=%d", err, len(rest))
	}
	if !RowsEqual(row, got) {
		t.Errorf("round trip: %v -> %v", row, got)
	}
}

func TestCodecErrors(t *testing.T) {
	c := NewCodec(testSchema())
	if _, err := c.Append(nil, Row{schema.IntValue(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, _, err := c.Decode(nil, make([]byte, 3)); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := c.DecodeAll(make([]byte, c.RowBytes()+1)); err == nil {
		t.Error("ragged buffer accepted")
	}
}

func TestCodecCoercion(t *testing.T) {
	c := NewCodec(testSchema())
	// Values with mismatched kinds are coerced to the schema.
	row := Row{
		schema.DoubleValue(3), schema.DoubleValue(1042),
		schema.IntValue(1), schema.IntValue(-2),
	}
	b, err := c.Append(nil, row)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	got, _, _ := c.Decode(nil, b)
	if got[0].Kind != schema.Short || got[0].Int != 3 {
		t.Errorf("coerced[0] = %+v", got[0])
	}
	if got[2].Kind != schema.Float || got[2].Float != 1 {
		t.Errorf("coerced[2] = %+v", got[2])
	}
}

func TestDecodeAll(t *testing.T) {
	c := NewCodec(testSchema())
	var buf []byte
	var want []Row
	for i := 0; i < 10; i++ {
		row := Row{
			{Kind: schema.Short, Int: int64(i)}, schema.IntValue(int64(i * 100)),
			schema.FloatValue(float64(i) / 2), schema.DoubleValue(float64(-i)),
		}
		want = append(want, row)
		var err error
		buf, err = c.Append(buf, row)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.DecodeAll(buf)
	if err != nil || len(got) != 10 {
		t.Fatalf("DecodeAll: %d rows, %v", len(got), err)
	}
	for i := range want {
		if !RowsEqual(want[i], got[i]) {
			t.Errorf("row %d: %v != %v", i, want[i], got[i])
		}
	}
	assertRowsIsolated(t, "DecodeAll", got, want)
	if allocs := testing.AllocsPerRun(10, func() { c.DecodeAll(buf) }); allocs > 2 {
		t.Errorf("DecodeAll of %d rows allocated %.0f times, want one slab and one row slice", len(want), allocs)
	}
}

func TestCopyRows(t *testing.T) {
	src := []Row{
		{schema.IntValue(1), schema.DoubleValue(1.5)},
		{},
		{schema.IntValue(2)},
		{schema.IntValue(3), schema.DoubleValue(3.5)},
	}
	want := make([]Row, len(src))
	for i, r := range src {
		want[i] = append(Row{}, r...)
	}
	got := CopyRows(src)
	for _, r := range src {
		for j := range r {
			r[j] = schema.IntValue(-9) // the producer reuses its rows
		}
	}
	for i := range want {
		if !RowsEqual(want[i], got[i]) {
			t.Errorf("copy %d: %v != %v", i, got[i], want[i])
		}
	}
	assertRowsIsolated(t, "CopyRows", got, want)
}

// assertRowsIsolated appends to each row in turn and checks that no
// other row changes: rows sharing a slab must be full slice
// expressions of it.
func assertRowsIsolated(t *testing.T, name string, got, want []Row) {
	t.Helper()
	for i := range got {
		_ = append(got[i], schema.IntValue(-1))
		for j := range got {
			if !RowsEqual(got[j], want[j]) {
				t.Fatalf("%s: appending to row %d changed row %d to %v", name, i, j, got[j])
			}
		}
	}
}

func TestFormatRow(t *testing.T) {
	row := Row{schema.IntValue(7), schema.DoubleValue(0.5)}
	if got := FormatRow(row); got != "7\t0.5" {
		t.Errorf("FormatRow = %q", got)
	}
}

func TestRowsEqual(t *testing.T) {
	a := Row{schema.IntValue(1), schema.FloatValue(2)}
	b := Row{schema.DoubleValue(1), schema.IntValue(2)} // same numeric values
	if !RowsEqual(a, b) {
		t.Error("numerically equal rows reported unequal")
	}
	if RowsEqual(a, Row{schema.IntValue(1)}) {
		t.Error("different arity reported equal")
	}
	if RowsEqual(a, Row{schema.IntValue(1), schema.FloatValue(3)}) {
		t.Error("different values reported equal")
	}
}

// Property: encode-then-decode is identity for random rows.
func TestCodecRoundTripQuick(t *testing.T) {
	c := NewCodec(testSchema())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := []byte{}
		var rows []Row
		n := rng.Intn(20) + 1
		for i := 0; i < n; i++ {
			row := Row{
				{Kind: schema.Short, Int: int64(int16(rng.Int()))},
				schema.IntValue(int64(int32(rng.Int()))),
				schema.FloatValue(float64(float32(rng.NormFloat64()))),
				schema.DoubleValue(rng.NormFloat64()),
			}
			rows = append(rows, row)
			var err error
			buf, err = c.Append(buf, row)
			if err != nil {
				return false
			}
		}
		got, err := c.DecodeAll(buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range rows {
			if !RowsEqual(rows[i], got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
