// Package driver applies a set of analyzers to loaded packages, honoring
// the //lint:allow escape hatch, and renders findings in the conventional
// file:line:col form.
package driver

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"dpbench/internal/analysis"
	"dpbench/internal/analysis/load"
)

// A Finding is one diagnostic from one analyzer, resolved to a position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding as "file:line:col: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyze runs every analyzer over one package, drops findings silenced by a
// //lint:allow comment, and returns the rest sorted by position. A grant
// that silences nothing is itself reported (as pseudo-analyzer
// "unusedallow"), so stale suppressions cannot accumulate — but only when
// the analyzer it names actually ran in this call, so a single-analyzer run
// (analysistest) never flags grants aimed at the rest of the roster.
func Analyze(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	allowed := collectAllows(pkg)
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if g := allowed[allowKey{pos.Filename, pos.Line, name}]; g != nil {
				g.used = true
				return
			}
			if g := allowed[allowKey{pos.Filename, pos.Line - 1, name}]; g != nil {
				g.used = true
				return
			}
			findings = append(findings, Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("driver: analyzer %s on %s: %v", a.Name, pkg.Meta.ImportPath, err)
		}
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for key, g := range allowed {
		if g.used || !ran[key.analyzer] {
			continue
		}
		findings = append(findings, Finding{
			Analyzer: "unusedallow",
			Pos:      g.pos,
			Message:  fmt.Sprintf("unused //lint:allow %s directive: nothing on this line or the next was silenced — remove it", key.analyzer),
		})
	}
	findings = mergeDuplicates(findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if findings[i].Analyzer != findings[j].Analyzer {
			return findings[i].Analyzer < findings[j].Analyzer
		}
		// Full tiebreak down to the message: same-position findings from one
		// analyzer (e.g. two unused allow grants on one line) must render in
		// a stable order regardless of map iteration.
		return findings[i].Message < findings[j].Message
	})
	return findings, nil
}

// mergeDuplicates folds findings that agree on (file, line, col, message)
// into one finding naming every analyzer that produced it, comma-joined in
// name order. Two analyzers flagging the same call with the same words is
// one defect, but dropping either name would hide which invariants it
// violates — and which //lint:allow grants a suppression needs.
func mergeDuplicates(findings []Finding) []Finding {
	type dupKey struct {
		file      string
		line, col int
		message   string
	}
	names := map[dupKey][]string{}
	order := map[dupKey]int{}
	for i, f := range findings {
		k := dupKey{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message}
		if _, seen := names[k]; !seen {
			order[k] = i
		}
		names[k] = append(names[k], f.Analyzer)
	}
	var out []Finding
	for i, f := range findings {
		k := dupKey{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message}
		if order[k] != i {
			continue
		}
		ns := names[k]
		sort.Strings(ns)
		uniq := ns[:0]
		for _, n := range ns {
			if len(uniq) == 0 || uniq[len(uniq)-1] != n {
				uniq = append(uniq, n)
			}
		}
		f.Analyzer = strings.Join(uniq, ",")
		out = append(out, f)
	}
	return out
}

// allowKey addresses one (file, line, analyzer) allow grant. A grant on line
// N silences that analyzer's findings on lines N and N+1, so the comment can
// sit either on the flagged line or directly above it.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowGrant tracks whether one grant ever silenced a finding.
type allowGrant struct {
	pos  token.Position
	used bool
}

// collectAllows scans every comment in the package for the escape hatch:
//
//	//lint:allow analyzer[,analyzer...] justification
func collectAllows(pkg *load.Package) map[allowKey]*allowGrant {
	allowed := map[allowKey]*allowGrant{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					allowed[allowKey{pos.Filename, pos.Line, name}] = &allowGrant{pos: pos}
				}
			}
		}
	}
	return allowed
}
