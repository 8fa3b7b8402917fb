package frame

import (
	"encoding/binary"
	"fmt"
)

// Rows reads a row-table payload — PMDB v2's accumulators, PMCK v2's
// ledger — field by field. The first malformed field records an
// ErrCorrupt and skips the rest of the input, so every later read
// returns zero and a caller checks Err once per row. Reads move an
// index, not the slice, so they store no pointer.
type Rows struct {
	b   []byte
	i   int // the next unread byte of b
	err error
}

// NewRows starts a decoder at the first byte of b.
func NewRows(b []byte) Rows { return Rows{b: b} }

// Err returns the first failure, nil while every field has decoded.
func (d *Rows) Err() error { return d.err }

// Left returns how many bytes are unread.
func (d *Rows) Left() int { return len(d.b) - d.i }

func (d *Rows) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: %w", what, ErrCorrupt)
	}
	d.i = len(d.b)
}

// Uvarint reads an unsigned varint. Most fields of a row fit one byte,
// so that case is tried before binary.Uvarint.
func (d *Rows) Uvarint() uint64 {
	if i := d.i; i < len(d.b) && d.b[i] < 0x80 {
		d.i = i + 1
		return uint64(d.b[i])
	}
	return d.longUvarint()
}

func (d *Rows) longUvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.i += n
	return v
}

// Varint reads a zigzag-encoded signed integer.
func (d *Rows) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag-encoded integer that must fit an int.
func (d *Rows) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.fail("integer overflows int")
		return 0
	}
	return int(v)
}

// Count reads a length whose items take at least size bytes each, and
// fails it when the input left cannot hold that many — before the
// caller allocates anything for them.
func (d *Rows) Count(size int) int {
	n := d.Uvarint()
	if n > uint64(d.Left()/size) {
		d.fail(fmt.Sprintf("declared %d items in %d bytes", n, d.Left()))
		return 0
	}
	return int(n)
}

// Take consumes n bytes (n already checked by Count) and returns them,
// aliasing the input.
func (d *Rows) Take(n int) []byte {
	p := d.b[d.i : d.i+n]
	d.i += n
	return p
}

// Uvarints reads n > 0 values (n already checked by Count).
func (d *Rows) Uvarints(n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.Uvarint()
	}
	return vs
}
