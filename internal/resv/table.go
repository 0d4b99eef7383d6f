package resv

import "math/bits"

// The soft-state table: one intrusive hash table for every owner of soft
// state — the resv server's shards, the cluster's link claims and its
// per-connection path flows. Records embed a Slot, as they embed a Timer
// for the Wheel, so installing, looking up and removing a record never
// allocates and never goes through a Go map. A record that must also be
// released with its owner (a connection, a peer session) sits on that
// owner's List for the table, threaded through the same Slot.
//
// Neither the table nor a List locks. One lock serializes every call on a
// table and on every List of records in it — an admission cell's (cell.go)
// — so the one Remove under that lock decides which of the racing release
// paths releases the record.

const (
	// tableMul is the bucket hash multiplier (splitmix64's first). Buckets
	// take the top bits of key·tableMul, and the resv server's shardFor
	// takes the top bits of key·2^64/φ: with φ here too, the keys of one
	// shard would land in 1/shards of its buckets. On sequential IDs and on
	// the wire's packed ID layouts, at 1 to 1024 shards, this multiplier
	// keeps a successful lookup within 1.5 chain steps on average at 3/4
	// load, about what a random hash gives.
	tableMul = 0xbf58476d1ce4e5b9
	// minTableHeads is the bucket count a table starts with on its first
	// Insert.
	minTableHeads = 8
)

// Slot is one record's place in a Table, and on its owner's List. It is
// embedded in the record; item points back at that record. The zero Slot
// is in no table and on no list.
type Slot[T comparable] struct {
	key  uint64
	item T
	// next links the slot into its bucket's chain, or into the table's
	// recycled records once removed.
	next *Slot[T]
	// onext links the slot into its owner's List; oprev points at the link
	// that points at the slot (the list's head or the previous slot's
	// onext), and is nil while the slot is on no list.
	onext *Slot[T]
	oprev **Slot[T]
}

// Table maps uint64 keys to records: a power-of-two array of bucket chains
// that doubles once it holds as many records as buckets. Removed records
// are kept for Reuse, so a table at steady state allocates nothing. The
// zero Table is empty and ready to use.
type Table[T comparable] struct {
	heads []*Slot[T]
	shift uint // 64 - log2(len(heads))
	n     int
	free  *Slot[T]
}

// Len returns the number of records in t.
func (t *Table[T]) Len() int { return t.n }

// Get returns the record inserted under key, or the zero T when there is
// none.
func (t *Table[T]) Get(key uint64) T {
	if t.n > 0 {
		for s := t.heads[(key*tableMul)>>t.shift]; s != nil; s = s.next {
			if s.key == key {
				return s.item
			}
		}
	}
	var zero T
	return zero
}

// Insert adds item, the record s is embedded in, under key. The caller has
// checked that no record holds key.
func (t *Table[T]) Insert(s *Slot[T], key uint64, item T) {
	if t.n >= len(t.heads) {
		t.grow()
	}
	s.key, s.item = key, item
	b := &t.heads[(key*tableMul)>>t.shift]
	s.next = *b
	*b = s
	t.n++
}

// Remove takes s out of t and keeps its record for Reuse. s must be in t.
// The record's fields stay as they are until the record is reused.
func (t *Table[T]) Remove(s *Slot[T]) {
	p := &t.heads[(s.key*tableMul)>>t.shift]
	for *p != s {
		p = &(*p).next
	}
	*p = s.next
	s.next = t.free
	t.free = s
	t.n--
}

// Reuse returns a record Remove took out, for the caller to fill and
// Insert again, or the zero T when there is none.
func (t *Table[T]) Reuse() T {
	s := t.free
	if s == nil {
		var zero T
		return zero
	}
	t.free = s.next
	s.next = nil
	return s.item
}

// Each calls f on every record in t, in no particular order. f may Remove
// the record it is given, and no other.
func (t *Table[T]) Each(f func(T)) {
	for _, s := range t.heads {
		for s != nil {
			next := s.next
			f(s.item)
			s = next
		}
	}
}

// grow doubles the bucket array and rehashes every chain into it: work
// proportional to the records held, done under the lock that serializes t.
func (t *Table[T]) grow() {
	size := 2 * len(t.heads)
	if size == 0 {
		size = minTableHeads
	}
	heads := make([]*Slot[T], size)
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range t.heads {
		for s != nil {
			next := s.next
			b := &heads[(s.key*tableMul)>>shift]
			s.next = *b
			*b = s
			s = next
		}
	}
	t.heads, t.shift = heads, shift
}

// List is one owner's records in one table — a resv connection's flows in
// one shard, a cluster peer session's claims on one link — threaded
// through their Slots. Its head is one pointer, so an owner with a List in
// each of N tables costs N words, and each slot points back at the link
// that points at it, so any slot unlinks in O(1). The zero List is empty;
// a List must not be copied once used.
type List[T comparable] struct {
	head *Slot[T]
}

// Empty reports whether l holds no records.
func (l *List[T]) Empty() bool { return l.head == nil }

// Push adds s to the front of l. s must be on no list.
func (l *List[T]) Push(s *Slot[T]) {
	s.onext, s.oprev = l.head, &l.head
	if l.head != nil {
		l.head.oprev = &s.onext
	}
	l.head = s
}

// Remove takes s off l. s must be on l.
func (l *List[T]) Remove(s *Slot[T]) {
	*s.oprev = s.onext
	if s.onext != nil {
		s.onext.oprev = s.oprev
	}
	s.onext, s.oprev = nil, nil
}

// Front returns the record at the front of l, or the zero T when l is
// empty.
func (l *List[T]) Front() T {
	if l.head == nil {
		var zero T
		return zero
	}
	return l.head.item
}
