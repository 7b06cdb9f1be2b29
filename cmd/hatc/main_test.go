package main

import (
	"bytes"
	"os"
	"path"
	"strings"
	"testing"
)

// TestGeneratedCodeFresh compiles every checked-in IDL and compares the
// result with the gen/*.go file next to it, so an IDL or codegen change has
// to commit what it generates. Paths are relative to the module root, as
// the generated header records them.
func TestGeneratedCodeFresh(t *testing.T) {
	for _, idl := range []string{
		"internal/atb/atb.hrpc",
		"internal/hatkv/kv.hrpc",
		"internal/tpch/worker.hrpc",
		"examples/quickstart/echo.hrpc",
		"examples/hybrid/hybrid.hrpc",
		"examples/filesystem/fs.hrpc",
	} {
		src, err := os.ReadFile("../../" + idl)
		if err != nil {
			t.Fatal(err)
		}
		got, warns, err := compile(idl, string(src))
		if err != nil || len(warns) != 0 {
			t.Fatalf("%s: %v, warnings %q", idl, err, warns)
		}
		genFile := path.Join(path.Dir(idl), "gen", strings.TrimSuffix(path.Base(idl), ".hrpc")+".go")
		want, err := os.ReadFile("../../" + genFile)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: regenerate it with go run ./cmd/hatc -in %s -out %s", genFile, idl, genFile)
		}
	}
}
