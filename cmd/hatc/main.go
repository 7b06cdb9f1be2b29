// Command hatc is the HatRPC compiler: it parses a hint-annotated Thrift
// IDL file (Figure 7 grammar) and emits Go code — structs, typed clients,
// processors and hint tables — against the hatrpc runtime, in the package
// the file's "namespace go" names.
//
// Usage:
//
//	hatc -in service.hrpc [-out gen.go]
package main

import (
	"flag"
	"fmt"
	"go/format"
	"os"

	"hatrpc/internal/codegen"
	"hatrpc/internal/idl"
)

func main() {
	in := flag.String("in", "", "input IDL file (.hrpc)")
	out := flag.String("out", "", "output Go file (default stdout)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "hatc: -in is required")
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	code, warns, err := compile(*in, string(src))
	for _, w := range warns {
		fmt.Fprintln(os.Stderr, "hatc: warning:", w)
	}
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(code)
		return
	}
	if err := os.WriteFile(*out, code, 0o644); err != nil {
		fatal(err)
	}
}

// compile parses the IDL source named file, generates its Go code and
// formats it; the warnings name the hints it dropped.
func compile(file, src string) ([]byte, []string, error) {
	doc, warns, err := idl.Parse(file, src)
	if err != nil {
		return nil, warns, err
	}
	code, err := format.Source([]byte(codegen.Generate(doc)))
	if err != nil {
		return nil, warns, fmt.Errorf("generated code does not parse: %v", err)
	}
	return code, warns, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hatc:", err)
	os.Exit(1)
}
