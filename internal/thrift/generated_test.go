package thrift_test

import (
	"bytes"
	"reflect"
	"testing"

	clustergen "hatrpc/internal/cluster/gen"
	kvgen "hatrpc/internal/hatkv/gen"
	"hatrpc/internal/thrift"
	"hatrpc/internal/ycsb"
)

// wireStruct is a generated struct as the codec sees it.
type wireStruct interface {
	Read(thrift.TProtocol) error
	Write(thrift.TProtocol) error
}

// generated holds a value of every exported struct kv.hrpc and
// cluster.hrpc declare.
var generated = []wireStruct{
	&kvgen.KVPair{Key: "user1", Value: []byte("value-of-user1")},
	&kvgen.KVError{Message: "boom"},
	&clustergen.Route{Epoch: 3, Primary: 1, Replicas: []int32{1, 2, 0}},
	&clustergen.Routes{Shards: []*clustergen.Route{{Epoch: 1, Replicas: []int32{0, 1, 2}}, {Epoch: 2, Primary: 4}}},
	&clustergen.ShardStatus{Epoch: 2, Seq: 9, LearnedEpoch: 2, LearnedPrimary: 1, Promised: -1, Leads: true},
	&clustergen.Pair{Key: []byte{0, 0, 0, 1, 'k'}, Value: []byte{}},
	&clustergen.Snapshot{Epoch: 1, Seq: 40, Pairs: []*clustergen.Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b")}}},
	&clustergen.Stale{Epoch: 1 << 40, Primary: 2},
	&clustergen.Fenced{}, &clustergen.NotQuorum{}, &clustergen.NeedSync{}, &clustergen.NotFound{},
}

func protocol(compact bool, m thrift.TTransport) thrift.TProtocol {
	if compact {
		return thrift.NewTCompactProtocol(m)
	}
	return thrift.NewTBinaryProtocol(m)
}

// encode writes v, in the protocol compact picks.
func encode(v wireStruct, compact bool) ([]byte, error) {
	m := thrift.NewTMemoryBuffer()
	err := v.Write(protocol(compact, m))
	return m.Bytes(), err
}

// sameValue is deep equality under which a nil slice equals an empty one:
// the wire has no nil list or binary, so an absent field decodes to nil
// and an empty one to empty, and both encode alike.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// FuzzGeneratedRoundTrip decodes arbitrary bytes as one of the generated
// structs, in either protocol. Whatever Read accepts, Write must encode
// without failing, to bytes that decode to an equal value and encode to
// the same bytes again. (Encoding is not bijective — a field absent and a
// field at its zero value decode alike — so the first bytes need not be
// the input.)
func FuzzGeneratedRoundTrip(f *testing.F) {
	for i, v := range generated {
		for _, compact := range []bool{false, true} {
			b, err := encode(v, compact)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), compact, b)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, compact bool, data []byte) {
		typ := reflect.TypeOf(generated[int(which)%len(generated)]).Elem()
		mk := func() wireStruct { return reflect.New(typ).Interface().(wireStruct) }
		v := mk()
		if v.Read(protocol(compact, thrift.NewTMemoryBufferWith(data))) != nil {
			return
		}
		first, err := encode(v, compact)
		if err != nil { // a decoded value holds no nil struct
			t.Fatalf("%T: %+v does not encode: %v", v, v, err)
		}
		w := mk()
		if err := w.Read(protocol(compact, thrift.NewTMemoryBufferWith(first))); err != nil {
			t.Fatalf("%T: its own encoding %x does not decode: %v", v, first, err)
		}
		if !sameValue(reflect.ValueOf(v), reflect.ValueOf(w)) {
			t.Fatalf("%T: %+v encodes as %x, which decodes to %+v", v, v, first, w)
		}
		if second, _ := encode(w, compact); !bytes.Equal(first, second) {
			t.Fatalf("%T: encodes as %x, then as %x", v, first, second)
		}
	})
}

var encodedSink []byte

// BenchmarkEncodeMultiPut times the binary encoding of ten KVPairs of
// 1 000-byte values into a fresh memory buffer: a MultiPut's arguments,
// the shape of the benchmark's per-layer thrift row.
func BenchmarkEncodeMultiPut(b *testing.B) {
	pairs := make([]*kvgen.KVPair, 10)
	for i := range pairs {
		pairs[i] = &kvgen.KVPair{Key: ycsb.Key(i), Value: make([]byte, 1000)}
	}
	b.ReportAllocs()
	for range b.N {
		m := thrift.NewTMemoryBuffer()
		w := thrift.NewTBinaryProtocol(m)
		for _, kv := range pairs {
			if err := kv.Write(w); err != nil {
				b.Fatal(err)
			}
		}
		encodedSink = m.Bytes()
	}
}
