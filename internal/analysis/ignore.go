package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// ParseIgnoreDirective parses a single comment text (including its
// leading "//") as a //lint:ignore directive. It returns the rule
// name, the mandatory free-text reason, and whether the comment is a
// well-formed directive. Anything malformed — a missing rule, a
// missing reason, extra colons, a /* */ comment — is not a directive
// and therefore suppresses nothing; the parser never panics on
// arbitrary input (see FuzzParseIgnoreDirective).
func ParseIgnoreDirective(text string) (rule, reason string, ok bool) {
	body, found := strings.CutPrefix(text, "//")
	if !found {
		return "", "", false
	}
	// The directive must start immediately after "//" (gofmt keeps
	// machine-readable comments unspaced, like //go:build).
	rest, found := strings.CutPrefix(body, "lint:ignore")
	if !found {
		return "", "", false
	}
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", false // rule or reason missing
	}
	rule = fields[0]
	reason = strings.TrimSpace(rest[strings.Index(rest, rule)+len(rule):])
	if rule == "" || reason == "" {
		return "", "", false
	}
	return rule, reason, true
}

// directive is one well-formed //lint:ignore comment. used records
// whether it suppressed a finding in this run.
type directive struct {
	pos  token.Pos
	rule string
	used bool
}

// collectSuppressions indexes every well-formed //lint:ignore
// directive of the units. A directive suppresses its rule on the
// directive's own line (end-of-line form) and on the line directly
// below it (line-above form).
func collectSuppressions(units []*Unit) (map[suppKey]*directive, []*directive) {
	supp := make(map[suppKey]*directive)
	var all []*directive
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rule, _, ok := ParseIgnoreDirective(c.Text)
					if !ok {
						continue
					}
					d := &directive{pos: c.Slash, rule: rule}
					all = append(all, d)
					pos := u.Fset.Position(c.Slash)
					supp[suppKey{file: pos.Filename, line: pos.Line, rule: rule}] = d
					supp[suppKey{file: pos.Filename, line: pos.Line + 1, rule: rule}] = d
				}
			}
		}
	}
	return supp, all
}

// reportStaleDirectives reports, under the pseudo-rule "directive",
// every //lint:ignore that names no registered rule or that
// suppressed no finding of a rule that ran. The finding bypasses the
// suppression index: a dead directive cannot be silenced, only
// deleted. Directives of registered rules left out of this run
// (-rules) are not judged.
func reportStaleDirectives(r *reporter, directives []*directive, analyzers []*Analyzer) {
	ran := make(map[string]bool) // registered rule → ran in this pass
	for _, a := range Analyzers() {
		ran[a.Name] = false
	}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, d := range directives {
		ruleRan, registered := ran[d.rule]
		switch {
		case !registered:
			r.add(r.fset.Position(d.pos), "directive", fmt.Sprintf("//lint:ignore names unknown rule %q: delete the directive", d.rule))
		case ruleRan && !d.used:
			r.add(r.fset.Position(d.pos), "directive", fmt.Sprintf("//lint:ignore %s suppresses no finding: delete the directive", d.rule))
		}
	}
}
