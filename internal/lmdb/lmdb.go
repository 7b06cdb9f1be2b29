// Package lmdb is an embedded key-value store modelled on LMDB (the
// paper's HatKV storage backend, §4.4): a copy-on-write B+tree with MVCC
// — any number of read transactions against immutable snapshots, one
// write transaction at a time — plus LMDB's operational knobs that HatKV
// tunes through hints: the max-readers limit and the commit sync mode.
//
// As in LMDB, MaxReaders sizes a reader table, whose slots record the
// snapshot id each live read transaction holds, and the table decides
// which B+tree nodes a writer may reuse. A committed write transaction
// retires the nodes it superseded; once neither the durable root nor any
// reader slot can reach one, it goes to a spare list that later write
// transactions take their copies from. Stored keys and values are never
// reused, only the nodes that point at them, so a value returned by Get
// stays valid; a cursor is valid only until its transaction ends.
//
// The store is a pure in-memory data structure: it charges no simulated
// time itself. HatKV translates its operation counts and sync mode into
// CPU/IO costs on the simulation's clock.
package lmdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// order is the B+tree fan-out.
const order = 32

// preWidth is how much of a node's shared key prefix the node holds
// itself; a longer prefix is read from its first key.
const preWidth = 32

// Errors returned by the store.
var (
	ErrReadersFull   = errors.New("lmdb: max readers reached")
	ErrWriterActive  = errors.New("lmdb: another write transaction is active")
	ErrTxnDone       = errors.New("lmdb: transaction already finished")
	ErrReadOnly      = errors.New("lmdb: write on read-only transaction")
	ErrNotFound      = errors.New("lmdb: key not found")
	ErrEnvClosed     = errors.New("lmdb: environment closed")
	ErrInvalidOption = errors.New("lmdb: invalid option")
)

// SyncMode controls commit durability (LMDB's MDB_NOSYNC family).
type SyncMode int

// Sync modes, strongest first.
const (
	// SyncFull fsyncs data and meta on every commit.
	SyncFull SyncMode = iota
	// SyncMeta fsyncs the meta page only (MDB_NOMETASYNC inverse).
	SyncMeta
	// NoSync trusts the OS page cache (MDB_NOSYNC).
	NoSync
)

// Options configures an environment.
type Options struct {
	// MaxReaders bounds concurrent read transactions (the knob HatKV
	// sets from the concurrency hint).
	MaxReaders int
	// Sync is the commit durability mode.
	Sync SyncMode
}

// Stats counts environment activity.
type Stats struct {
	Puts          int64
	Gets          int64
	Deletes       int64
	Commits       int64
	Aborts        int64
	SyncedCommits int64
	PagesCopied   int64 // nodes copied, at most once per node per write txn (write amplification)
	Entries       int64
	Flushes       int64 // explicit Flush calls
	Recoveries    int64 // CrashRecover reopenings
}

// Env is a database environment.
type Env struct {
	opt     Options
	root    *node
	txnID   uint64
	readers int // live read txns of this boot: what MaxReaders bounds
	writer  bool
	closed  bool
	boot    uint64 // CrashRecover count; a txn begun in an earlier boot is stale
	Stats   Stats

	// The durable meta root: what a crash rolls back to. Under SyncFull
	// every commit advances it; under SyncMeta it trails the live root
	// by one commit (the meta page is synced but the data pages of the
	// newest commit may still be in the page cache); under NoSync it
	// stays wherever the last synced commit (or Flush) left it.
	durableRoot    *node
	durableTxnID   uint64
	durableEntries int64

	// The reader table: slots[i] is the snapshot id the read txn in slot
	// i holds, noReader when free, and free lists the free slots. A read
	// txn of an earlier boot keeps its slot until it ends, so a snapshot
	// held across CrashRecover stays protected.
	slots []uint64
	free  []int
	pins  []uint64 // reclaim's scratch: the durable id and the held snapshot ids

	// Node reuse. retired holds superseded nodes that some root a snapshot
	// may read can still reach — committed ones, then those the live write
	// txn has superseded so far — and spare the emptied nodes no root can
	// reach, which write txns take before making new ones.
	retired []retiree
	spare   []*node
}

// noReader marks a free reader slot. It is above every txn id, so it
// falls in no [made, end) range of a retiree.
const noReader = ^uint64(0)

// retiree is a node that txn end superseded. n.txn made it, so only the
// roots of txns n.txn … end−1 can reach it.
type retiree struct {
	n   *node
	end uint64
}

// Open creates an environment.
func Open(opt Options) (*Env, error) {
	if opt.MaxReaders <= 0 {
		opt.MaxReaders = 126 // LMDB's default
	}
	if opt.Sync < SyncFull || opt.Sync > NoSync {
		return nil, ErrInvalidOption
	}
	e := &Env{opt: opt}
	e.sizeReaderTable()
	return e, nil
}

// SetMaxReaders adjusts the reader limit (hint-driven retuning).
func (e *Env) SetMaxReaders(n int) error {
	if n <= 0 {
		return ErrInvalidOption
	}
	e.opt.MaxReaders = n
	e.sizeReaderTable()
	return nil
}

// sizeReaderTable adds free reader slots until every reader MaxReaders
// admits can have one, with the slots readers of earlier boots still hold
// on top.
func (e *Env) sizeReaderTable() {
	for len(e.free) < e.opt.MaxReaders-e.readers {
		e.free = append(e.free, len(e.slots))
		e.slots = append(e.slots, noReader)
	}
}

// SetSync adjusts the commit sync mode (hint-driven retuning).
func (e *Env) SetSync(m SyncMode) error {
	if m < SyncFull || m > NoSync {
		return ErrInvalidOption
	}
	e.opt.Sync = m
	return nil
}

// Sync returns the current sync mode.
func (e *Env) Sync() SyncMode { return e.opt.Sync }

// MaxReaders returns the reader limit.
func (e *Env) MaxReaders() int { return e.opt.MaxReaders }

// Readers returns the live read-transaction count.
func (e *Env) Readers() int { return e.readers }

// Close shuts the environment.
func (e *Env) Close() { e.closed = true }

// node is a B+tree node. Leaves hold keys+values; internal nodes hold
// separator keys and children. Nodes are immutable once part of a
// committed root — writers copy on write, once per node per txn (LMDB's
// dirty-page rule): txn is the id of the write txn that created the
// node, the only txn that may still edit it in place. Its slices are
// made with room for a split's worth of entries and hold nil past their
// length, so a reused node never regrows and never pins a stale pair.
//
// A node also holds what a search of it needs, so that a search reads
// no key outside it unless two keys agree past their heads (prefix
// truncation with fixed-width heads): pfx is the length of a prefix all
// its keys share — any shared prefix, so a delete keeps it — and pre its
// first preWidth bytes; heads[i] is keys[i]'s head after that prefix.
// Only the first len(keys) heads are current.
type node struct {
	leaf     bool
	txn      uint64
	keys     [][]byte
	vals     [][]byte // leaf only
	children []*node  // internal only

	pfx   int
	pre   [preWidth]byte
	heads [order + 1]uint64
}

// head returns the head of key k after a p-byte prefix: the next 7
// bytes, big-endian and zero-padded, over a low byte that holds how many
// bytes follow the prefix, capped at 8. Heads order their keys, except
// that equal heads with a low byte of 8 leave keys that both run past
// the head bytes to be ordered by the rest.
func head(k []byte, p int) uint64 {
	switch s := len(k) - p; {
	case s >= 8:
		return binary.BigEndian.Uint64(k[p:])&^0xff | 8
	case len(k) >= 8:
		// k's last 8 bytes end with the s after the prefix; the shift
		// drops the rest.
		return binary.BigEndian.Uint64(k[len(k)-8:])<<(64-8*s) | uint64(s)
	default:
		h := uint64(s)
		for i, c := range k[p:] {
			h |= uint64(c) << (56 - 8*i)
		}
		return h
	}
}

// prefix returns the bytes all of n's keys share. n must hold a key when
// pfx exceeds preWidth.
func (n *node) prefix() []byte {
	if n.pfx <= preWidth {
		return n.pre[:n.pfx]
	}
	return n.keys[0][:n.pfx]
}

// find returns the index of the first key >= k, and whether that key
// equals k. It compares k with the node's prefix once, then
// binary-searches the heads.
func (n *node) find(k []byte) (int, bool) {
	m := len(n.keys)
	if m == 0 {
		return 0, false
	}
	p := n.pfx
	if !bytes.HasPrefix(k, n.prefix()) {
		if bytes.Compare(k, n.prefix()) < 0 {
			return 0, false
		}
		return m, false
	}
	h := head(k, p)
	long := h&0xff == 8 // a tie on h leaves the bytes past the head to compare
	lo, hi := 0, m
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hm := n.heads[mid]; hm < h || hm == h && long && bytes.Compare(n.keys[mid][p+7:], k[p+7:]) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < m && n.heads[lo] == h && (!long || bytes.Equal(n.keys[lo][p+7:], k[p+7:]))
}

// refit recomputes the prefix of n, which holds a key, as the longest
// one its keys share, and every head.
func (n *node) refit() {
	first, last := n.keys[0], n.keys[len(n.keys)-1]
	p := 0
	for p < len(first) && p < len(last) && first[p] == last[p] {
		p++
	}
	n.pfx = p
	copy(n.pre[:], first[:min(p, preWidth)])
	for i, k := range n.keys {
		n.heads[i] = head(k, p)
	}
}

// insertKey puts k into n's keys at i, shifting the keys from i on one
// slot up. A key between two others has their prefix; one at an end may
// not, and then every head is recomputed. Otherwise only the shifted
// heads move.
func (n *node) insertKey(i int, k []byte) {
	m := len(n.keys)
	keep := i > 0 && i < m || m > 0 && bytes.HasPrefix(k, n.prefix())
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = k
	if !keep {
		n.refit()
		return
	}
	copy(n.heads[i+1:m+1], n.heads[i:m])
	n.heads[i] = head(k, n.pfx)
}

// deleteKey takes the key at i out of n's keys. The rest keep the prefix.
func (n *node) deleteKey(i int) {
	n.keys = slices.Delete(n.keys, i, i+1)
	copy(n.heads[i:], n.heads[i+1:len(n.keys)+1])
}

// own returns n if this txn created it, otherwise a copy stamped as this
// txn's, retiring n. A writer starts at the committed root, which reaches
// only nodes of ids ≤ Env.txnID, and its own id is Env.txnID+1: a node it
// finds with its id it made itself. Nodes that an Abort or a rewinding
// CrashRecover leaves carrying a reused id are unreachable from that root,
// so any snapshot still holding them stays intact.
func (t *Txn) own(n *node) *node {
	if n.txn == t.id {
		return n
	}
	e := t.env
	e.Stats.PagesCopied++
	e.retired = append(e.retired, retiree{n, t.id})
	c := t.fresh(n.leaf)
	c.keys = append(c.keys, n.keys...)
	m := len(n.keys)
	c.pfx, c.pre = n.pfx, n.pre
	copy(c.heads[:m], n.heads[:m])
	if n.leaf {
		c.vals = append(c.vals, n.vals...)
	} else {
		c.children = append(c.children, n.children...)
	}
	return c
}

// fresh returns an empty node stamped as this txn's: a spare one when
// there is one.
func (t *Txn) fresh(leaf bool) *node {
	e := t.env
	var n *node
	if k := len(e.spare); k > 0 {
		n = e.spare[k-1]
		e.spare = e.spare[:k-1]
	} else {
		n = &node{keys: make([][]byte, 0, order+1)}
	}
	n.leaf, n.txn = leaf, t.id
	if leaf && n.vals == nil {
		n.vals = make([][]byte, 0, order+1)
	}
	if !leaf && n.children == nil {
		n.children = make([]*node, 0, order+2)
	}
	return n
}

// Txn is a transaction: a snapshot root plus, for writers, COW state.
type Txn struct {
	env      *Env
	root     *node
	readOnly bool
	done     bool
	id       uint64
	size     int64  // entry-count delta
	boot     uint64 // Env.boot when the txn began
	slot     int    // a reader's slot in the reader table
	retired  int    // a writer's first entry in Env.retired: what Abort hands back
}

// BeginRead opens a read transaction against the current snapshot. It
// stays small enough to inline, so the Txn can live on its caller's stack.
func (e *Env) BeginRead() (*Txn, error) {
	if e.closed {
		return nil, ErrEnvClosed
	}
	if e.readers >= e.opt.MaxReaders {
		return nil, ErrReadersFull
	}
	e.readers++
	k := len(e.free) - 1
	slot := e.free[k]
	e.free = e.free[:k]
	e.slots[slot] = e.txnID
	return &Txn{env: e, root: e.root, readOnly: true, id: e.txnID, boot: e.boot, slot: slot}, nil
}

// BeginWrite opens the (single) write transaction.
func (e *Env) BeginWrite() (*Txn, error) {
	if e.closed {
		return nil, ErrEnvClosed
	}
	if e.writer {
		return nil, ErrWriterActive
	}
	e.writer = true
	return &Txn{env: e, root: e.root, id: e.txnID + 1, boot: e.boot, retired: len(e.retired)}, nil
}

// ID returns the transaction id (snapshot version).
func (t *Txn) ID() uint64 { return t.id }

// ended reports whether t is finished: committed, aborted, or a write txn
// that CrashRecover killed. A read txn outlives a crash — its snapshot
// stays readable until it ends.
func (t *Txn) ended() bool { return t.done || !t.readOnly && t.boot != t.env.boot }

// Get returns the value for key, or ErrNotFound.
func (t *Txn) Get(key []byte) ([]byte, error) {
	if t.ended() {
		return nil, ErrTxnDone
	}
	t.env.Stats.Gets++
	n := t.root
	for n != nil {
		i, exact := n.find(key)
		if n.leaf {
			if exact {
				return n.vals[i], nil
			}
			return nil, ErrNotFound
		}
		if exact {
			i++
		}
		n = n.children[i]
	}
	return nil, ErrNotFound
}

// Put inserts or replaces key → value (copied together into one
// allocation).
func (t *Txn) Put(key, value []byte) error {
	k, v := CopyPair(key, value)
	return t.PutOwned(k, v)
}

// CopyPair copies a key and value into one allocation: the key is its
// capacity-capped head, the value its tail.
func CopyPair[K ~string | ~[]byte](key K, value []byte) (k, v []byte) {
	b := append(append(make([]byte, 0, len(key)+len(value)), key...), value...)
	return b[:len(key):len(key)], b[len(key):]
}

// PutOwned is Put for a key and value the caller hands over: the tree
// keeps k and v themselves, so they must never be modified afterwards.
// They may share one allocation (CopyPair's): an overwrite replaces the
// stored key as well as the value, so a live key never pins a superseded
// value.
func (t *Txn) PutOwned(k, v []byte) error {
	if t.ended() {
		return ErrTxnDone
	}
	if t.readOnly {
		return ErrReadOnly
	}
	t.env.Stats.Puts++
	if t.root == nil {
		r := t.fresh(true)
		r.insertKey(0, k)
		r.vals = append(r.vals, v)
		t.root = r
		t.size++
		return nil
	}
	root, split, sepKey, added := t.insert(t.root, k, v)
	if added {
		t.size++
	}
	t.root = root
	if split != nil {
		t.root = t.fresh(false)
		t.root.insertKey(0, sepKey)
		t.root.children = append(t.root.children, root, split)
	}
	return nil
}

// insert performs COW insertion, returning the node (owned by this txn),
// an optional split sibling with its separator key, and whether a new
// entry was added.
func (t *Txn) insert(n *node, key, val []byte) (*node, *node, []byte, bool) {
	c := t.own(n)
	i, exact := c.find(key)
	if c.leaf {
		if exact {
			c.keys[i], c.vals[i] = key, val
		} else {
			c.insertKey(i, key)
			c.vals = append(c.vals, nil)
			copy(c.vals[i+1:], c.vals[i:])
			c.vals[i] = val
		}
		if len(c.keys) <= order {
			return c, nil, nil, !exact
		}
		mid := len(c.keys) / 2
		right := t.fresh(true)
		right.keys = append(right.keys, c.keys[mid:]...)
		right.vals = append(right.vals, c.vals[mid:]...)
		clear(c.keys[mid:])
		clear(c.vals[mid:])
		c.keys = c.keys[:mid]
		c.vals = c.vals[:mid]
		c.refit()
		right.refit()
		// The separator gets its own bytes: the leaf key may share an
		// allocation with a value that a later overwrite supersedes.
		return c, right, append([]byte(nil), right.keys[0]...), !exact
	}
	if exact {
		i++
	}
	child, split, sepKey, added := t.insert(c.children[i], key, val)
	c.children[i] = child
	if split != nil {
		c.insertKey(i, sepKey)
		c.children = append(c.children, nil)
		copy(c.children[i+2:], c.children[i+1:])
		c.children[i+1] = split
	}
	if len(c.keys) <= order {
		return c, nil, nil, added
	}
	mid := len(c.keys) / 2
	sep := c.keys[mid]
	right := t.fresh(false)
	right.keys = append(right.keys, c.keys[mid+1:]...)
	right.children = append(right.children, c.children[mid+1:]...)
	clear(c.keys[mid:])
	clear(c.children[mid+1:])
	c.keys = c.keys[:mid]
	c.children = c.children[:mid+1]
	c.refit()
	right.refit()
	return c, right, sep, added
}

// Delete removes key; it returns ErrNotFound if absent. (Rebalancing is
// not performed — deleted slots are compacted lazily, which matches the
// append-mostly YCSB usage.)
func (t *Txn) Delete(key []byte) error {
	if t.ended() {
		return ErrTxnDone
	}
	if t.readOnly {
		return ErrReadOnly
	}
	t.env.Stats.Deletes++
	root, found := t.remove(t.root, key)
	if !found {
		return ErrNotFound
	}
	t.root = root
	t.size--
	return nil
}

// remove takes key out of n's subtree, owning the path only once the key
// is found: a miss copies nothing.
func (t *Txn) remove(n *node, key []byte) (*node, bool) {
	if n == nil {
		return nil, false
	}
	i, exact := n.find(key)
	if n.leaf {
		if !exact {
			return n, false
		}
		c := t.own(n)
		c.deleteKey(i)
		c.vals = slices.Delete(c.vals, i, i+1)
		return c, true
	}
	if exact {
		i++
	}
	child, found := t.remove(n.children[i], key)
	if !found {
		return n, false
	}
	c := t.own(n)
	c.children[i] = child
	return c, true
}

// Commit publishes the write transaction's root (no-op for readers,
// which just release their slot), then reuses the superseded nodes no
// snapshot can reach any more. A write txn that CrashRecover killed
// returns ErrTxnDone and publishes nothing.
func (t *Txn) Commit() error {
	if t.ended() {
		return ErrTxnDone
	}
	t.done = true
	e := t.env
	if t.readOnly {
		t.release()
		return nil
	}
	e.writer = false
	prevRoot, prevTxnID, prevEntries := e.root, e.txnID, e.Stats.Entries
	e.root = t.root
	e.txnID = t.id
	e.Stats.Commits++
	e.Stats.Entries += t.size
	switch e.opt.Sync {
	case SyncFull:
		e.Stats.SyncedCommits++
		e.durableRoot, e.durableTxnID, e.durableEntries = e.root, e.txnID, e.Stats.Entries
	case SyncMeta:
		// Meta synced, data pages possibly not: the previous commit is
		// the newest state guaranteed to survive a crash.
		e.Stats.SyncedCommits++
		if prevTxnID > e.durableTxnID {
			e.durableRoot, e.durableTxnID, e.durableEntries = prevRoot, prevTxnID, prevEntries
		}
	}
	e.reclaim()
	return nil
}

// Abort discards the transaction. The nodes a write txn superseded are
// still in the committed tree, so they leave the retired list again.
func (t *Txn) Abort() {
	if t.ended() {
		return
	}
	t.done = true
	e := t.env
	if t.readOnly {
		t.release()
		return
	}
	clear(e.retired[t.retired:])
	e.retired = e.retired[:t.retired]
	e.writer = false
	e.Stats.Aborts++
}

// release frees a read txn's reader slot. A reader of an earlier boot
// frees only its slot: the count it took died with its boot.
func (t *Txn) release() {
	e := t.env
	e.slots[t.slot] = noReader
	e.free = append(e.free, t.slot)
	if t.boot == e.boot {
		e.readers--
	}
}

// reclaim moves every retired node that no snapshot can reach to the
// spare list, emptied. A retiree is reachable only from the roots of ids
// [n.txn, end): it is free once neither the durable root nor a reader
// slot names one of them. The live root's id is at least every end.
func (e *Env) reclaim() {
	pins := append(e.pins[:0], e.durableTxnID)
	for _, id := range e.slots {
		if id != noReader && id != pins[len(pins)-1] {
			pins = append(pins, id)
		}
	}
	e.pins = pins
	kept := e.retired[:0]
	for _, r := range e.retired {
		if pinned(pins, r.n.txn, r.end) {
			kept = append(kept, r)
			continue
		}
		n := r.n
		clear(n.keys)
		clear(n.vals)
		clear(n.children)
		n.keys, n.vals, n.children = n.keys[:0], n.vals[:0], n.children[:0]
		e.spare = append(e.spare, n)
	}
	clear(e.retired[len(kept):])
	e.retired = kept
}

// pinned reports whether one of pins is in [made, end).
func pinned(pins []uint64, made, end uint64) bool {
	for _, id := range pins {
		if made <= id && id < end {
			return true
		}
	}
	return false
}

// Entries returns the committed entry count.
func (e *Env) Entries() int64 { return e.Stats.Entries }

// TxnID returns the id of the last committed transaction.
func (e *Env) TxnID() uint64 { return e.txnID }

// DurableTxnID returns the id of the newest transaction guaranteed to
// survive a crash (the fsynced meta root).
func (e *Env) DurableTxnID() uint64 { return e.durableTxnID }

// Flush forces a full sync regardless of the sync mode (LMDB's
// mdb_env_sync): everything committed so far becomes durable.
func (e *Env) Flush() error {
	if e.closed {
		return ErrEnvClosed
	}
	e.durableRoot, e.durableTxnID, e.durableEntries = e.root, e.txnID, e.Stats.Entries
	e.Stats.Flushes++
	return nil
}

// CrashRecover models abrupt process death plus reopen: commits beyond
// the last fsynced meta root are lost (how many depends on the sync
// mode in effect when they committed), live transactions vanish with
// the process, and the environment reopens from the durable root. It
// returns the number of committed transactions rolled back. Activity
// counters in Stats are process-lifetime observability and are
// deliberately not rolled back; Entries is state and is.
func (e *Env) CrashRecover() (lostTxns uint64) {
	lostTxns = e.txnID - e.durableTxnID
	e.root = e.durableRoot
	e.txnID = e.durableTxnID
	e.Stats.Entries = e.durableEntries
	e.readers = 0
	e.writer = false
	e.closed = false
	e.boot++
	e.sizeReaderTable()
	e.Stats.Recoveries++
	// What a lost commit (or the dead writer) superseded is live again in
	// the durable tree, or garbage: it must never be reused.
	e.retired = slices.DeleteFunc(e.retired, func(r retiree) bool { return r.end > e.durableTxnID })
	// A snapshot held across the crash may name a lost commit, an id the
	// next writers reuse. Every node it shares with them is in the durable
	// tree, so it pins what the durable root's id pins.
	for i, id := range e.slots {
		if id != noReader && id > e.durableTxnID {
			e.slots[i] = e.durableTxnID
		}
	}
	return lostTxns
}

// ---------------------------------------------------------------------------
// Cursor

// Cursor iterates keys in order within a transaction's snapshot.
type Cursor struct {
	txn   *Txn
	stack []cursorFrame
	valid bool
}

type cursorFrame struct {
	n   *node
	idx int
}

// Seek positions the cursor at the first key >= key. A cursor is valid
// only until its txn ends: after that the nodes it walks may be reused,
// and it reports !Valid. A cursor on a write txn is also invalidated by
// that txn's next Put or Delete, which may edit those nodes in place.
func (t *Txn) Seek(key []byte) *Cursor {
	c := &Cursor{txn: t}
	if t.ended() {
		return c
	}
	n := t.root
	for n != nil {
		i, exact := n.find(key)
		if n.leaf {
			c.stack = append(c.stack, cursorFrame{n, i})
			c.valid = i < len(n.keys)
			if !c.valid {
				c.advanceLeaf()
			}
			return c
		}
		if exact {
			i++
		}
		c.stack = append(c.stack, cursorFrame{n, i})
		n = n.children[i]
	}
	return c
}

// Valid reports whether the cursor points at an entry. Key and Value may
// be called only while it does.
func (c *Cursor) Valid() bool { return c.valid && !c.txn.ended() }

// Key returns the current key.
func (c *Cursor) Key() []byte {
	f := c.stack[len(c.stack)-1]
	return f.n.keys[f.idx]
}

// Value returns the current value.
func (c *Cursor) Value() []byte {
	f := c.stack[len(c.stack)-1]
	return f.n.vals[f.idx]
}

// Next advances to the following key.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	top := &c.stack[len(c.stack)-1]
	top.idx++
	if top.idx < len(top.n.keys) {
		return
	}
	c.advanceLeaf()
}

// advanceLeaf pops exhausted frames and descends to the next leaf.
func (c *Cursor) advanceLeaf() {
	c.stack = c.stack[:len(c.stack)-1] // drop leaf frame
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		top.idx++
		if top.idx < len(top.n.children) {
			n := top.n.children[top.idx]
			for !n.leaf {
				c.stack = append(c.stack, cursorFrame{n, 0})
				n = n.children[0]
			}
			c.stack = append(c.stack, cursorFrame{n, 0})
			c.valid = len(n.keys) > 0
			if !c.valid {
				continue
			}
			return
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
	c.valid = false
}

// String describes the env for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("lmdb.Env{txn=%d entries=%d readers=%d sync=%d}",
		e.txnID, e.Stats.Entries, e.readers, e.opt.Sync)
}
