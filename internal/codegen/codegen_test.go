package codegen

import (
	"go/format"
	"strings"
	"testing"

	"hatrpc/internal/idl"
)

const testIDL = `
namespace go testsvc

struct KVPair {
  1: string key,
  2: binary value,
  3: i64 ts,
  4: bool live,
  5: list<i32> tags,
}

exception KVError {
  1: string message,
  2: i32 code,
}

service KVStore {
  hint: concurrency=128, perf_goal=throughput;
  s_hint: numa=bind;

  binary Get(1: string key) throws (1: KVError err)
    [ hint: payload_size=1024; c_hint: perf_goal=latency; ]
  void Put(1: string key, 2: binary value)
  list<KVPair> Scan(1: string prefix, 2: i32 limit)
  oneway void Log(1: string msg)
}
`

func generate(t *testing.T) string {
	t.Helper()
	doc, warns, err := idl.Parse("test.hrpc", testIDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("warnings: %v", warns)
	}
	return Generate(doc)
}

func TestGeneratedCodeParsesAsGo(t *testing.T) {
	code := generate(t)
	if _, err := format.Source([]byte(code)); err != nil {
		// Dump a window around the failure for debugging.
		t.Fatalf("generated code does not parse: %v\n----\n%s", err, code)
	}
}

func TestGeneratedCodeDeterministic(t *testing.T) {
	a := generate(t)
	b := generate(t)
	if a != b {
		t.Fatal("generator output is not deterministic")
	}
}

func TestGeneratedSymbols(t *testing.T) {
	code := generate(t)
	for _, sym := range []string{
		"package testsvc",
		"type KVPair struct {",
		"type KVError struct {",
		"func (x *KVError) Error() string",
		"type KVStoreHandler interface {",
		"Get(p *sim.Proc, key_ string) ([]byte, error)",
		"Put(p *sim.Proc, key_ string, value_ []byte) error",
		"Scan(p *sim.Proc, prefix_ string, limit_ int32) ([]*KVPair, error)",
		"Log(p *sim.Proc, msg_ string) error",
		"type KVStoreClient struct {",
		"func NewKVStoreClient(t trdma.Transport) *KVStoreClient",
		"type KVStoreProcessor struct {",
		"func (pr *KVStoreProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte",
		"var KVStoreHints = &trdma.ServiceHints{",
		`"concurrency": "128"`,
		`"numa": "bind"`,
		`"perf_goal": "latency"`,
		`"Get": 1,`,
		`"Log": true,`,
	} {
		if !strings.Contains(code, sym) {
			t.Errorf("generated code missing %q", sym)
		}
	}
}

// TestFramingLivesOnce: the message framing, the seq check and the
// application exceptions live in trdma's Call and Serve, so no generated
// stub writes a message header, reads one, checks a seq or encodes an
// exception of its own. And a protocol write grows a memory buffer, so it
// cannot fail, and no end but a struct's is on the wire: no stub checks a
// write's error or marks a field, list or message end.
func TestFramingLivesOnce(t *testing.T) {
	code := generate(t)
	for _, sym := range []string{"WriteMessageBegin", "ReadMessageHeader", "ExcBadSequenceID", "EncodeException", "TApplicationException",
		"if err := p.Write", "FieldEnd(", "ListEnd(", "MessageEnd("} {
		if strings.Contains(code, sym) {
			t.Errorf("generated code contains %q", sym)
		}
	}
}

func TestGeneratedHintTableStructure(t *testing.T) {
	code := generate(t)
	// Function-level hints must live in the Functions map, not the
	// service set.
	idx := strings.Index(code, "Functions: map[string]*hints.Set{")
	if idx < 0 {
		t.Fatal("no Functions map")
	}
	if !strings.Contains(code[idx:], `"payload_size": "1024"`) {
		t.Error("Get's payload_size hint missing from function map")
	}
}

func TestDefaultPackageName(t *testing.T) {
	doc := idl.MustParse("x.hrpc", `service S { void F() }`)
	if !strings.Contains(Generate(doc), "package gen") {
		t.Error("default package name not applied")
	}
}

func TestNestedContainersGenerate(t *testing.T) {
	doc := idl.MustParse("n.hrpc", `
struct Leaf {
  1: string name,
}
struct Deep {
  2: list<list<string>> names,
  3: list<list<Leaf>> leaves,
}
service S { Deep Roundtrip(1: Deep d) }
`)
	if _, err := format.Source([]byte(Generate(doc))); err != nil {
		t.Fatalf("nested container code does not parse: %v", err)
	}
}
