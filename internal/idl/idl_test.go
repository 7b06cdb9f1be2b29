package idl

import (
	"strings"
	"testing"
	"testing/quick"

	"hatrpc/internal/hints"
)

const kvIDL = `
// HatKV service for the YCSB benchmark (paper Figure 10).
namespace go hatkv

struct KVPair {
  1: string key,
  2: binary value,
}

exception KVError {
  1: string message,
}

service KVStore {
  hint: concurrency=128, perf_goal=throughput;

  binary Get(1: string key) throws (1: KVError err)
    [ hint: payload_size=1024; c_hint: perf_goal=latency; ]

  void Put(1: string key, 2: binary value)
    [ c_hint: payload_size=1024; s_hint: payload_size=64; ]

  list<binary> MultiGet(1: list<string> keys)
    [ hint: payload_size=10240; ]

  void MultiPut(1: list<KVPair> pairs)
    [ c_hint: payload_size=10240; s_hint: payload_size=64; ]
}
`

func TestParseKVService(t *testing.T) {
	doc, warns, err := Parse("kv.hrpc", kvIDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("unexpected warnings: %v", warns)
	}
	if doc.Namespace != "hatkv" {
		t.Errorf("namespace = %q", doc.Namespace)
	}
	if len(doc.Structs) != 2 {
		t.Fatalf("structs = %d, want 2", len(doc.Structs))
	}
	if !doc.Structs[1].IsException {
		t.Error("KVError should be an exception")
	}
	svc := doc.Services[0]
	if len(svc.Functions) != 4 {
		t.Fatalf("functions = %d, want 4", len(svc.Functions))
	}
	// Service-level hints.
	if got := svc.Hints.Shared[hints.KeyConcurrency]; got != "128" {
		t.Errorf("service concurrency = %q", got)
	}
	// Function-level: Get has shared payload + client perf_goal override.
	get := svc.FindFunction("Get")
	if got := get.Hints.Shared[hints.KeyPayloadSize]; got != "1024" {
		t.Errorf("Get payload_size = %q", got)
	}
	g := hints.Resolve(svc.Hints, get.Hints, hints.SideClient)
	if g[hints.KeyPerfGoal] != "latency" {
		t.Errorf("Get client perf_goal = %q, want latency", g[hints.KeyPerfGoal])
	}
	gs := hints.Resolve(svc.Hints, get.Hints, hints.SideServer)
	if gs[hints.KeyPerfGoal] != "throughput" {
		t.Errorf("Get server perf_goal = %q, want throughput (service)", gs[hints.KeyPerfGoal])
	}
	// Put: asymmetric payload sizes per side.
	put := svc.FindFunction("Put")
	if hints.Resolve(svc.Hints, put.Hints, hints.SideClient)[hints.KeyPayloadSize] != "1024" {
		t.Error("Put client payload wrong")
	}
	if hints.Resolve(svc.Hints, put.Hints, hints.SideServer)[hints.KeyPayloadSize] != "64" {
		t.Error("Put server payload wrong")
	}
	// Get throws.
	if len(get.Throws) != 1 || get.Throws[0].Type.Name != "KVError" {
		t.Errorf("Get throws = %+v", get.Throws)
	}
	// Types.
	mg := svc.FindFunction("MultiGet")
	if mg.Returns.Kind != TypeList || mg.Returns.Elem.Kind != TypeBinary {
		t.Errorf("MultiGet returns %+v", mg.Returns)
	}
}

func TestParseEchoWithServiceHintsOnly(t *testing.T) {
	src := `
service Echo {
  hint: perf_goal=latency, concurrency=1;
  string Ping(1: string msg)
  oneway void Fire(1: string msg)
}
`
	doc, _, err := Parse("echo.hrpc", src)
	if err != nil {
		t.Fatal(err)
	}
	svc := doc.Services[0]
	if svc.Hints.Shared[hints.KeyPerfGoal] != "latency" {
		t.Error("service hint missing")
	}
	fire := svc.FindFunction("Fire")
	if !fire.Oneway || fire.Returns != nil {
		t.Errorf("Fire = %+v", fire)
	}
	if !svc.FindFunction("Ping").Hints.Empty() {
		t.Error("Ping should have no function hints")
	}
}

func TestInvalidHintDroppedWithWarning(t *testing.T) {
	src := `
service S {
  hint: perf_goal=warp_speed, concurrency=4;
  void F()
}
`
	doc, warns, err := Parse("s.hrpc", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "perf_goal") {
		t.Fatalf("warnings = %v, want one about perf_goal", warns)
	}
	svc := doc.Services[0]
	if _, ok := svc.Hints.Shared[hints.KeyPerfGoal]; ok {
		t.Error("invalid hint was kept")
	}
	if svc.Hints.Shared[hints.KeyConcurrency] != "4" {
		t.Error("valid hint in same group was lost")
	}
}

func TestUnknownHintKeyDropped(t *testing.T) {
	src := `service S { hint: turbo=on; void F() }`
	doc, warns, err := Parse("s.hrpc", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 {
		t.Fatalf("warnings = %v", warns)
	}
	if !doc.Services[0].Hints.Empty() {
		t.Error("unknown hint kept")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing brace", `service S { void F()`, "expected"},
		{"bad field id", `struct X { 0: i32 a }`, "bad field id"},
		{"oneway with return", `service S { oneway i32 F() }`, "oneway"},
		{"dup function", `service S { void F() void F() }`, "duplicate"},
		{"unterminated string", `const string X = "abc`, "unterminated"},
		{"bad hint value", `service S { hint: perf_goal=[; void F() }`, "bad hint value"},
		{"unknown keyword", `frobnicate X {}`, "unknown definition"},
		{"void arg", `service S { void F(1: void x) }`, "void"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := Parse("t.hrpc", c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestRejectsWhatHatcDoesNotCompile: each Thrift construct outside the
// HatRPC subset, and each type name no struct or exception of the file
// declares, fails the parse at its file:line:col with an error naming it.
func TestRejectsWhatHatcDoesNotCompile(t *testing.T) {
	field := func(decl string) string { return "struct X {\n  1: " + decl + "\n}" }
	cases := []struct{ name, src, at, want string }{
		{"typedef", "typedef i64 Timestamp", "1:1", `"typedef"`},
		{"enum", "enum Status { OK }", "1:1", `"enum"`},
		{"const", "const i32 N = 10", "1:1", `"const"`},
		{"include", `include "base.thrift"`, "1:1", `"include"`},
		{"namespace other than go", "namespace cpp kv", "1:11", "namespace cpp"},
		{"set", field("set<i64> ids"), "2:6", `"set"`},
		{"map", field("map<string, i32> m"), "2:6", `"map"`},
		{"double", field("double d"), "2:6", `"double"`},
		{"i16", field("i16 n"), "2:6", `"i16"`},
		{"byte", field("byte b"), "2:6", `"byte"`},
		{"i8", field("i8 b"), "2:6", `"i8"`},
		{"required", field("required i32 n"), "2:6", "required"},
		{"optional", field("optional i32 n"), "2:6", "optional"},
		{"field default", field("i32 n = 5"), "2:12", "default"},
		{"extends", "service Child extends Base {\n  void F()\n}", "1:15", `"extends"`},
		{"undeclared field type", field("Missing m"), "2:6", `undeclared type "Missing"`},
		{"undeclared argument type", "service S {\n  void F(1: list<Missing> m)\n}", "2:18", `undeclared type "Missing"`},
		{"undeclared result type", "service S {\n  Missing F()\n}", "2:3", `undeclared type "Missing"`},
		{"undeclared throws type", "service S {\n  void F() throws (1: Missing e)\n}", "2:23", `undeclared type "Missing"`},
		{"throws a non-exception", "struct E {}\nservice S {\n  void F() throws (1: E e)\n}", "3:23", `throws "E"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := Parse("t.hrpc", c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if msg := err.Error(); !strings.HasPrefix(msg, "t.hrpc:"+c.at+": ") || !strings.Contains(msg, c.want) {
				t.Fatalf("error %q, want one at t.hrpc:%s naming %s", msg, c.at, c.want)
			}
		})
	}
}

func TestCommentStyles(t *testing.T) {
	src := `
// line comment
# hash comment
/* block
   comment */
service S { void F() }
`
	doc, _, err := Parse("c.hrpc", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Services) != 1 {
		t.Fatal("service not parsed")
	}
}

func TestErrorPosition(t *testing.T) {
	src := "service S {\n  hint: turbo=\n}"
	_, _, err := Parse("pos.hrpc", src)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "pos.hrpc:3:") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestHintGroupMultipleGroupsMergeAtSameLevel(t *testing.T) {
	src := `
service S {
  hint: perf_goal=latency;
  hint: concurrency=8;
  s_hint: polling=event;
  void F()
}
`
	doc := MustParse("s.hrpc", src)
	h := doc.Services[0].Hints
	if h.Shared[hints.KeyPerfGoal] != "latency" || h.Shared[hints.KeyConcurrency] != "8" {
		t.Errorf("shared = %v", h.Shared)
	}
	if h.Server[hints.KeyPolling] != "event" {
		t.Errorf("server = %v", h.Server)
	}
}

func TestLexerTokenKinds(t *testing.T) {
	toks, err := Tokenize("t", `ident 42 "str" { } ( ) [ ] < > , ; : = -7`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TokIdent, TokIntLit, TokStringLit,
		TokLBrace, TokRBrace, TokLParen, TokRParen,
		TokLBracket, TokRBracket, TokLAngle, TokRAngle,
		TokComma, TokSemi, TokColon, TokEquals, TokIntLit, TokEOF,
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	toks, err := Tokenize("t", `"a\nb\t\"c\""`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\nb\t\"c\"" {
		t.Fatalf("escaped string = %q", toks[0].Text)
	}
}

// Property: the lexer never panics and always terminates on arbitrary
// input — it either tokenizes or reports a positioned error.
func TestPropertyLexerTotal(t *testing.T) {
	f := func(src string) bool {
		toks, err := Tokenize("fuzz", src)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the parser never panics on arbitrary input.
func TestPropertyParserTotal(t *testing.T) {
	f := func(src string) bool {
		_, _, _ = Parse("fuzz", src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: any service built from valid hint pairs parses with zero
// warnings, and every hint survives into the AST.
func TestPropertyValidHintsRoundTrip(t *testing.T) {
	keys := []string{"perf_goal", "polling", "numa", "transport", "priority"}
	vals := map[string][]string{
		"perf_goal": {"latency", "throughput", "res_util"},
		"polling":   {"auto", "busy", "event"},
		"numa":      {"bind", "none"},
		"transport": {"rdma", "tcp"},
		"priority":  {"high", "low"},
	}
	f := func(picks []uint8) bool {
		if len(picks) == 0 {
			return true
		}
		if len(picks) > 5 {
			picks = picks[:5]
		}
		seen := map[string]string{}
		var parts []string
		for i, p := range picks {
			k := keys[(int(p)+i)%len(keys)]
			v := vals[k][int(p)%len(vals[k])]
			seen[k] = v
			parts = append(parts, k+"="+v)
		}
		src := "service S {\n  hint: " + strings.Join(parts, ", ") + ";\n  void F()\n}"
		doc, warns, err := Parse("prop.hrpc", src)
		if err != nil || len(warns) != 0 {
			return false
		}
		got := doc.Services[0].Hints.Shared
		for k, v := range seen {
			if got[hints.Key(k)] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
