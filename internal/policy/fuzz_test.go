package policy

import (
	"strings"
	"testing"
)

// FuzzParse checks the policy parser is total over arbitrary input.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"read :- sessionKeyIs(Ka)",
		"read ::= sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, expiry)",
		"exec :- fwVersionStorage('3.4') & !hostLocIs(EU)",
		"read :- logUpdate(l, K, Q) -- comment\n; write :- reuseMap(m)",
		"read :- ((sessionKeyIs(a)))",
		"::- &|!()",
		"read :- " + strings.Repeat("(", maxDepth+1) + "sessionKeyIs(a)" + strings.Repeat(")", maxDepth+1),
		"read :- " + strings.Repeat("!", maxDepth) + "sessionKeyIs(a)",
		"read :- sessionKeyIs(a)" + strings.Repeat(" | sessionKeyIs(b)", maxDepth),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(input)
		if err == nil {
			// Render/reparse stability on anything accepted.
			if _, err := Parse(p.String()); err != nil {
				t.Errorf("accepted %q but rendering %q fails: %v", input, p.String(), err)
			}
		}
	})
}
