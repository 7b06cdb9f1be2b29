package lmdb

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkNode fails unless n's keys are sorted and all share its prefix,
// and every current head and length is the one head computes.
func checkNode(t *testing.T, n *node) {
	t.Helper()
	for i, k := range n.keys {
		if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
			t.Fatalf("keys %d and %d are out of order: %q, %q", i-1, i, n.keys[i-1], k)
		}
		if len(k) < n.pfx || !bytes.Equal(k[:n.pfx], n.prefix()) {
			t.Fatalf("key %d %q lacks the node's %d-byte prefix %q", i, k, n.pfx, n.prefix())
		}
		if h := head(k, n.pfx); n.heads[i] != h {
			t.Fatalf("key %d %q has head %x, want %x", i, k, n.heads[i], h)
		}
	}
}

// checkFind fails unless n.find(k) agrees with sort.Search over
// bytes.Compare on n's keys.
func checkFind(t *testing.T, n *node, k []byte) {
	t.Helper()
	want := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], k) >= 0 })
	wantExact := want < len(n.keys) && bytes.Equal(n.keys[want], k)
	if i, exact := n.find(k); i != want || exact != wantExact {
		t.Fatalf("find(%q) over %q = %d, %v; want %d, %v", k, n.keys, i, exact, want, wantExact)
	}
}

// fuzzKeys cuts data into keys, each a one-byte length and that many
// bytes (at most 40), all behind a shared prefix of pre bytes: the first
// pre bytes of a fixed pattern that crosses 0x00 and 0xff.
func fuzzKeys(data []byte, pre int) [][]byte {
	base := make([]byte, pre)
	for i := range base {
		base[i] = []byte{'u', 0x00, 0xff, 's'}[i%4]
	}
	var keys [][]byte
	for len(data) > 0 && len(keys) < 3*order {
		l := min(int(data[0])%41, len(data)-1)
		keys = append(keys, append(slices.Clip(base), data[1:1+l]...))
		data = data[1+l:]
	}
	return keys
}

// FuzzNodeSearch: a node built by insertKey from arbitrary keys (shared
// prefixes longer than preWidth, keys that are prefixes of others, 0x00
// and 0xff bytes, heads that tie), then thinned by deleteKey and split
// as insert splits one, keeps every head current and finds what
// sort.Search over bytes.Compare finds, for every key and for the probe.
func FuzzNodeSearch(f *testing.F) {
	f.Add([]byte("\x03abc\x02ab\x04abcd\x00\x01a"), []byte("ab"), uint8(0))
	f.Add([]byte("\x09abcdefgh1\x09abcdefgh0\x08abcdefgh\x0aabcdefgh00\x07abcdefg\x08abcdefg\x00"), []byte("abcdefgh0"), uint8(40))
	f.Add([]byte("\x02\x00\x00\x01\x00\x03\x00\x00\x00\x02\xff\xff\x01\xff\x00"), []byte{0x00, 0x00}, uint8(33))
	f.Add([]byte("\x18user00000000000000000001\x18user00000000000000000017\x18user00000000000000009999"), []byte("user00000000000000000017"), uint8(0))
	f.Add([]byte("\x0cpppppppppppz\x0cppppppppppp\x00\x0bppppppppppp"), []byte("ppppppppppp"), uint8(32))
	// Heads that tie: suffixes that agree for 7 bytes and differ after,
	// and a 7-byte suffix against longer ones.
	f.Add([]byte("\x01z\x0aa123456701\x0aa123456703\x07a123456\x08a1234567\x0ba1234567021"), []byte("a123456702"), uint8(0))
	f.Fuzz(func(t *testing.T, data, probe []byte, pre uint8) {
		keys := fuzzKeys(data, int(pre)%48)
		n := &node{keys: make([][]byte, 0, order+1)}
		for _, k := range keys {
			i, exact := n.find(k)
			if exact {
				continue
			}
			if len(n.keys) == order+1 {
				break
			}
			n.insertKey(i, k)
			checkNode(t, n)
		}
		check := func() {
			t.Helper()
			checkNode(t, n)
			for _, k := range keys {
				checkFind(t, n, k)
				checkFind(t, n, k[:len(k)/2])
				checkFind(t, n, append(slices.Clip(k), 0))
			}
			checkFind(t, n, probe)
			checkFind(t, n, nil)
		}
		check()
		// Thin it out: every third key goes, the prefix stays.
		for i := len(n.keys) - 1; i >= 0; i -= 3 {
			n.deleteKey(i)
		}
		check()
		// Split it as insert does: each half refits.
		if m := len(n.keys); m > 1 {
			right := &node{keys: slices.Clone(n.keys[m/2:])}
			n.keys = n.keys[:m/2]
			n.refit()
			right.refit()
			check()
			n = right
			check()
		}
	})
}

// TestTreeMatchesMapAcrossTxns: random write txns of puts, overwrites
// and deletes, over YCSB-form keys and over short binary keys (0x00,
// 0xff, keys that prefix others), leave a tree whose every Get and full
// Seek scan match a map model after each commit, and whose nodes all
// keep their search bytes current.
func TestTreeMatchesMapAcrossTxns(t *testing.T) {
	ycsbKey := func(rng *rand.Rand) []byte { return []byte(fmt.Sprintf("user%020d", rng.Intn(3000))) }
	binKey := func(rng *rand.Rand) []byte {
		k := make([]byte, rng.Intn(4))
		for i := range k {
			k[i] = []byte{0x00, 0x01, 0x7f, 0xfe, 0xff}[rng.Intn(5)]
		}
		return k
	}
	for name, gen := range map[string]func(*rand.Rand) []byte{"ycsb": ycsbKey, "binary": binKey} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e, _ := Open(Options{Sync: SyncFull})
			model := map[string]string{}
			for txn := 0; txn < 60; txn++ {
				w, _ := e.BeginWrite()
				pending := maps.Clone(model)
				for op, ops := 0, 1+rng.Intn(200); op < ops; op++ {
					k := gen(rng)
					if rng.Intn(4) == 0 {
						_, had := pending[string(k)]
						if err := w.Delete(k); (err == nil) != had {
							t.Fatalf("%s seed %d: Delete(%q) = %v, model has it: %v", name, seed, k, err, had)
						}
						delete(pending, string(k))
						continue
					}
					v := fmt.Sprintf("v%d.%d", txn, op)
					if err := w.Put(k, []byte(v)); err != nil {
						t.Fatal(err)
					}
					pending[string(k)] = v
				}
				if rng.Intn(5) == 0 {
					w.Abort()
					continue
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
				model = pending
				r, _ := e.BeginRead()
				for k, v := range model {
					if got, err := r.Get([]byte(k)); err != nil || string(got) != v {
						t.Fatalf("%s seed %d txn %d: Get(%q) = %q, %v; want %q", name, seed, txn, k, got, err, v)
					}
				}
				if got, want := scan(r), render(model); got != want {
					t.Fatalf("%s seed %d txn %d: scan differs from the model", name, seed, txn)
				}
				for n := range reachable(r.root, map[*node]bool{}) {
					checkNode(t, n)
				}
				r.Abort()
			}
		}
	}
}

// benchKeys returns n keys of ycsb.Key's form, "user" and the index
// zero-padded to twenty digits.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%020d", i))
	}
	return keys
}

// preload puts every key with a 1 000-B value into e in one write txn,
// as the KV benchmarks set their store up.
func preload(b *testing.B, e *Env, keys [][]byte) {
	val := make([]byte, 1000)
	w, err := e.BeginWrite()
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		if err := w.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGet: one Get in a read txn over 10 000 YCSB keys with 1 000-B
// values, striding the key space so successive Gets share no leaf.
func BenchmarkGet(b *testing.B) {
	keys := benchKeys(10_000)
	e, _ := Open(Options{Sync: SyncFull})
	preload(b, e, keys)
	r, _ := e.BeginRead()
	defer r.Abort()
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i, j = i+1, j+7919 {
		if _, err := r.Get(keys[j%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreload: the 10 000 puts of BenchmarkGet's set-up in one
// write txn, into a fresh env.
func BenchmarkPreload(b *testing.B) {
	keys := benchKeys(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, _ := Open(Options{Sync: SyncFull})
		preload(b, e, keys)
	}
}
