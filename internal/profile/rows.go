package profile

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"
)

// A DB keeps its accumulators in one table of rows addressed by slot:
// slot i is the i-th PC the database gained, and a slot never changes.
// A decoded image's rows are one exact-size slab (base), slots
// [0, len(base)); every row added later goes in a chunk of chunkRows,
// and only the newest chunk grows, by a quarter of the database's rows
// but at most a quarter of a chunk at a time (growStep). So a database
// holds at most a quarter of a chunk of spare rows, and a small one at
// most a quarter of its size, each rounded up to its allocation's size
// class. PCAccum holds no pointer, so the rows sit in memory the garbage
// collector never scans.
//
// Growing the newest chunk moves its rows: a *PCAccum from the table is
// valid until the next write that adds a PC to the database.
const (
	// chunkBytes is a chunk's allocation: eight 8-KB pages, which
	// chunkRows rows fill to within one row.
	chunkBytes = 64 << 10
	chunkRows  = chunkBytes / int(unsafe.Sizeof(PCAccum{}))
	// firstChunkRows is the least capacity a new chunk starts with.
	firstChunkRows = 8
)

// growStep is how many rows the newest chunk grows by: a quarter of
// the database's rows, at least one and at most a quarter of a chunk.
// A chunk of a large database therefore takes four allocations, each a
// whole size class or whole pages (68, 136, 204 and 273 rows).
func (db *DB) growStep() int { return min(max(db.n/4, 1), chunkRows/4) }

// row returns slot's accumulator.
func (db *DB) row(slot int32) *PCAccum {
	if int(slot) < len(db.base) {
		return &db.base[slot]
	}
	s := uint(int(slot) - len(db.base)) // unsigned: a cheaper divide
	return &db.chunks[s/uint(chunkRows)][s%uint(chunkRows)]
}

// each calls f on every accumulator in slot order.
func (db *DB) each(f func(slot int32, a *PCAccum)) {
	for i := range db.base {
		f(int32(i), &db.base[i])
	}
	slot := int32(len(db.base))
	for _, ch := range db.chunks {
		for i := range ch {
			f(slot, &ch[i])
			slot++
		}
	}
}

// newRow appends a zero accumulator for pc and returns its slot. The
// newest chunk grows by growStep rows (rounded up to its allocation's
// size class) until it holds chunkRows; then a new chunk starts.
func (db *DB) newRow(pc uint64) int32 {
	slot := db.n
	c := (slot - len(db.base)) / chunkRows
	if c == len(db.chunks) {
		db.chunks = append(db.chunks, slices.Grow([]PCAccum(nil), max(db.growStep(), firstChunkRows)))
	}
	ch := db.chunks[c]
	if len(ch) == cap(ch) {
		grown := slices.Grow([]PCAccum(nil), min(chunkRows, len(ch)+db.growStep()))
		ch = append(grown, ch...)
	}
	db.chunks[c] = append(ch, PCAccum{PC: pc})
	db.n++
	if db.n > 1 && pc < db.row(int32(slot-1)).PC {
		db.unsorted = true
	}
	return int32(slot)
}

// The index maps a PC to its slot: open addressing with linear probing
// over 4-byte refs (slot+1; 0 marks an empty entry, and PC 0 is a valid
// key), at most half full. An entry holds no PC: a probe reads it from
// the slot's row. A database never drops a PC, so the index never
// deletes.

// indexSize is the table size that holds n PCs at most half full: a
// power of two, at least 16.
func indexSize(n int) int {
	if n <= 8 {
		return 16
	}
	return 1 << bits.Len(uint(2*n-1))
}

// home is pc's first probe position in the table: Fibonacci hashing, as
// pcIndex's, so strided code addresses spread over the table.
func (db *DB) home(pc uint64) int {
	return int((pc * 0x9e3779b97f4a7c15) >> db.shift)
}

// setIndex makes tab, zeroed and of a power-of-two length, the index,
// and enters every row in it.
func (db *DB) setIndex(tab []uint32) {
	db.index = tab
	db.shift = uint(64 - bits.TrailingZeros(uint(len(tab))))
	mask := len(tab) - 1
	db.each(func(slot int32, a *PCAccum) {
		i := db.home(a.PC)
		for tab[i] != 0 {
			i = (i + 1) & mask
		}
		tab[i] = uint32(slot) + 1
	})
}

// find returns pc's slot and row, or a nil row and the empty table
// position where a probe for it stops (-1 with no table).
func (db *DB) find(pc uint64) (slot int32, a *PCAccum, pos int) {
	if len(db.index) == 0 {
		return 0, nil, -1
	}
	mask := len(db.index) - 1
	for i := db.home(pc); ; i = (i + 1) & mask {
		ref := db.index[i]
		if ref == 0 {
			return 0, nil, i
		}
		if a := db.row(int32(ref - 1)); a.PC == pc {
			return int32(ref - 1), a, i
		}
	}
}

// slotOf returns pc's slot and row, adding a zero row for it first if
// the database has none.
func (db *DB) slotOf(pc uint64) (int32, *PCAccum) {
	slot, a, pos := db.find(pc)
	if a != nil {
		return slot, a
	}
	slot = db.newRow(pc)
	if 2*db.n > len(db.index) {
		db.setIndex(make([]uint32, indexSize(db.n)))
	} else {
		db.index[pos] = uint32(slot) + 1
	}
	return slot, db.row(slot)
}

// Addrs returns the effective addresses kept for pc (at most
// RetainAddrs, in arrival order), or nil. The slice aliases the
// database: read it, do not change it, before the next write.
func (db *DB) Addrs(pc uint64) []uint64 {
	if slot, a, _ := db.find(pc); a != nil {
		return db.addrsAt(slot)
	}
	return nil
}

// addrsAt returns slot's kept addresses.
func (db *DB) addrsAt(slot int32) []uint64 {
	if int(slot) < len(db.addrs) {
		return db.addrs[slot]
	}
	return nil
}

// keepAddrs appends to slot's kept addresses as many of addrs as
// RetainAddrs leaves room for, copying them. The side table is
// allocated by the first address kept.
func (db *DB) keepAddrs(slot int32, addrs ...uint64) {
	kept := db.addrsAt(slot)
	room := db.RetainAddrs - len(kept)
	if room <= 0 || len(addrs) == 0 {
		return
	}
	if int(slot) >= len(db.addrs) {
		db.addrs = append(db.addrs, make([][]uint64, db.n-len(db.addrs))...)
	}
	db.addrs[slot] = append(kept, addrs[:min(room, len(addrs))]...)
}

// ascendingSlots returns the slots in ascending PC order, or nil when
// the slot order is ascending already.
func (db *DB) ascendingSlots() []int32 {
	if !db.unsorted {
		return nil
	}
	type entry struct {
		pc   uint64
		slot int32
	}
	es := make([]entry, 0, db.n)
	db.each(func(slot int32, a *PCAccum) { es = append(es, entry{a.PC, slot}) })
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.pc, b.pc) })
	slots := make([]int32, len(es))
	for i, e := range es {
		slots[i] = e.slot
	}
	return slots
}
