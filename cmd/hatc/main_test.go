package main

import (
	"bytes"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestGeneratedCodeFresh compiles every IDL of the module — each *.hrpc
// outside testdata/ — and compares the result with the gen/*.go file next
// to it, so an IDL or codegen change has to commit what it generates, and
// a new IDL cannot be left out. Paths are relative to the module root, as
// the generated header records them.
func TestGeneratedCodeFresh(t *testing.T) {
	var idls []string
	err := filepath.WalkDir("../..", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && p != "../.." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".hrpc") {
			idls = append(idls, filepath.ToSlash(strings.TrimPrefix(p, "../../")))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(idls) == 0 {
		t.Fatal("found no IDL file in the module")
	}
	for _, idl := range idls {
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
