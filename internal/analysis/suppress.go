package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives. A finding can be silenced with a comment of the
// form
//
//	//lint:ignore procmine <reason>
//	//lint:ignore procmine/<analyzer> <reason>
//
// placed either at the end of the offending line or on its own line
// immediately above it. The reason is mandatory: a directive without one is
// ignored and the finding still fires, so every suppression in the tree
// documents why the invariant does not apply at that site. The bare
// "procmine" form silences every pass in the suite; the qualified form
// silences only the named pass.

// directive is one parsed //lint:ignore comment.
type directive struct {
	line     int    // line the comment starts on
	analyzer string // "" means all procmine analyzers
	ownLine  bool   // no code precedes the comment on its line
}

// Suppressions indexes the valid lint:ignore directives of a set of files
// by file.
type Suppressions struct {
	byFile map[string][]directive
}

// CollectSuppressions parses the lint:ignore directives of all files. Files
// must have been parsed with comments.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byFile: make(map[string][]directive)}
	for _, f := range files {
		code := codePositionsByLine(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d.line = pos.Line
				d.ownLine = true
				for _, p := range code[pos.Line] {
					if p < c.Pos() {
						d.ownLine = false
						break
					}
				}
				s.byFile[pos.Filename] = append(s.byFile[pos.Filename], d)
			}
		}
	}
	return s
}

// codePositionsByLine records, per line, the positions where non-comment
// syntax starts or ends. It distinguishes own-line directives from trailing
// ones: a comment is on its own line exactly when no code position on that
// line precedes it.
func codePositionsByLine(fset *token.FileSet, f *ast.File) map[int][]token.Pos {
	code := make(map[int][]token.Pos)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.File, *ast.Comment, *ast.CommentGroup:
			return true
		}
		for _, p := range [2]token.Pos{n.Pos(), n.End()} {
			if p.IsValid() {
				line := fset.Position(p).Line
				code[line] = append(code[line], p)
			}
		}
		return true
	})
	return code
}

// parseDirective recognizes "//lint:ignore procmine[/<analyzer>] <reason>".
func parseDirective(text string) (directive, bool) {
	body, ok := strings.CutPrefix(text, "//lint:ignore ")
	if !ok {
		return directive{}, false
	}
	fields := strings.Fields(body)
	if len(fields) < 2 {
		// Missing reason: not a valid suppression.
		return directive{}, false
	}
	target := fields[0]
	if target == "procmine" {
		return directive{analyzer: ""}, true
	}
	if name, ok := strings.CutPrefix(target, "procmine/"); ok && name != "" {
		return directive{analyzer: name}, true
	}
	return directive{}, false
}

// Suppresses reports whether d is silenced by a directive on its line, or
// by an own-line directive on the line immediately above. A directive
// trailing some other statement does not reach down to the next line.
func (s *Suppressions) Suppresses(fset *token.FileSet, d Diagnostic) bool {
	return s.SuppressesAt(fset.Position(d.Pos), d.Analyzer)
}

// SuppressesAt is Suppresses for an already-rendered position — the form
// module-level findings work in.
func (s *Suppressions) SuppressesAt(pos token.Position, analyzer string) bool {
	for _, dir := range s.byFile[pos.Filename] {
		if dir.analyzer != "" && dir.analyzer != analyzer {
			continue
		}
		if dir.line == pos.Line || (dir.ownLine && dir.line == pos.Line-1) {
			return true
		}
	}
	return false
}
