// Package node is the production lifecycle layer (DESIGN.md §17): a
// long-running node assembled from a YAML config split into application
// and protocol sections, hosting the hatkv/cluster tier inside the DES
// with boot, graceful drain and stop.
package node

import (
	"fmt"
	"strings"
)

// The repo has a zero-dependency constraint, so the config loader
// hand-rolls the YAML subset the node config actually needs — nested
// maps by indentation, scalar values, comments — instead of pulling in
// a YAML module. No key takes a list, so a block list is rejected here
// and a flow list ([a, b]) reaches its key's decoder as a scalar that
// decoder refuses. Anything outside the subset is rejected with a line
// number: a config file that parses is fully understood.

type yamlKind uint8

const (
	yScalar yamlKind = iota
	yMap
)

// yamlNode is one parsed config node. Maps remember key insertion order
// (keys) so strict decoding can walk them deterministically — ranging
// over child would make which error a bad config reports vary by run.
type yamlNode struct {
	kind   yamlKind
	line   int
	scalar string
	keys   []string // yMap: insertion order
	child  map[string]*yamlNode
}

func (n *yamlNode) kindName() string {
	if n.kind == yScalar {
		return "scalar"
	}
	return "map"
}

// parseYAML parses src into a map tree. Errors carry 1-based line
// numbers.
func parseYAML(src string) (*yamlNode, error) {
	root := &yamlNode{kind: yMap, child: make(map[string]*yamlNode)}
	type frame struct {
		node        *yamlNode
		childIndent int // indentation of this container's entries; -1 until the first entry
	}
	stack := []frame{{node: root, childIndent: -1}}

	for lineNo, raw := range strings.Split(src, "\n") {
		ln := lineNo + 1
		line := stripComment(raw)
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.Contains(line, "\t") {
			return nil, fmt.Errorf("node: yaml line %d: tabs are not allowed (indent with spaces)", ln)
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		content := strings.TrimSpace(line)

		// Close containers whose entry indentation we have outdented past.
		for len(stack) > 1 {
			top := &stack[len(stack)-1]
			if top.childIndent == -1 || indent >= top.childIndent {
				break
			}
			stack = stack[:len(stack)-1]
		}
		top := &stack[len(stack)-1]
		if top.childIndent == -1 {
			if len(stack) > 1 && indent <= stack[len(stack)-2].childIndent {
				return nil, fmt.Errorf("node: yaml line %d: expected indented block", ln)
			}
			top.childIndent = indent
		} else if indent != top.childIndent {
			return nil, fmt.Errorf("node: yaml line %d: bad indentation %d (container uses %d)", ln, indent, top.childIndent)
		}

		if strings.HasPrefix(content, "- ") || content == "-" {
			return nil, fmt.Errorf("node: yaml line %d: list item (no config key takes a list)", ln)
		}
		key, val, ok := splitKeyValue(content)
		if !ok {
			return nil, fmt.Errorf("node: yaml line %d: expected `key:` or `key: value`", ln)
		}
		if _, dup := top.node.child[key]; dup {
			return nil, fmt.Errorf("node: yaml line %d: duplicate key %q", ln, key)
		}
		top.node.keys = append(top.node.keys, key)
		if val != "" {
			top.node.child[key] = &yamlNode{kind: yScalar, line: ln, scalar: unquote(val)}
			continue
		}
		// `key:` opens a nested map.
		n := &yamlNode{kind: yMap, line: ln, child: make(map[string]*yamlNode)}
		top.node.child[key] = n
		stack = append(stack, frame{node: n, childIndent: -1})
	}

	// A trailing `key:` with no block is an empty map — legal (treated as
	// "section present, all defaults").
	return root, nil
}

// stripComment removes a full-line or trailing comment. A '#' only
// starts a comment at line start or after whitespace, so flag-like
// values containing '#' mid-token survive.
func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] != '#' {
			continue
		}
		if i == 0 || line[i-1] == ' ' {
			return line[:i]
		}
	}
	return line
}

// splitKeyValue splits `key: value` / `key:` at the first colon
// terminating the key.
func splitKeyValue(content string) (key, val string, ok bool) {
	i := strings.Index(content, ":")
	if i <= 0 {
		return "", "", false
	}
	key = strings.TrimSpace(content[:i])
	val = strings.TrimSpace(content[i+1:])
	if key == "" || strings.ContainsAny(key, " []{},") {
		return "", "", false
	}
	return key, val, true
}

// unquote strips one layer of matched single or double quotes.
func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
