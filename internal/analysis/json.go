package analysis

import (
	"encoding/json"
	"io"
)

// Report is the -json output of cmd/nbodylint: the engine version
// plus the findings array.
type Report struct {
	Engine   string       `json:"engine"`
	Findings []Diagnostic `json:"findings"`
}

// EmitJSONReport writes the engine-versioned report object,
// deterministically: the findings are a sorted copy (input order does
// not leak into the output), and an empty or nil slice emits the empty
// array "[]", never "null", so consumers can unconditionally parse an
// array. The emitter never panics on any diagnostic content (see
// FuzzEmitJSONReport): Diagnostic holds only strings and ints, both
// always marshalable.
func EmitJSONReport(w io.Writer, ds []Diagnostic) error {
	sorted := make([]Diagnostic, len(ds))
	copy(sorted, ds)
	sortDiagnostics(sorted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Engine: EngineVersion, Findings: sorted})
}
