package chaos

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.json from this build's sweep digests")

const digestsPath = "testdata/digests.json"

// pinned holds the committed sweep digests. "Per-seed byte-identical" is
// checked against this record, not only against a second run in the same
// process: a refactor of the fault plane or the sweep harness that moves a
// decision ordinal, a trace line or an outcome line fails here. Regenerate
// with `go test ./internal/chaos -update` only for a change that means to
// move a digest, and say in the commit which line moved.
var pinned = struct {
	sync.Mutex
	want, got map[string]string
}{want: map[string]string{}, got: map[string]string{}}

func TestMain(m *testing.M) {
	flag.Parse()
	blob, err := os.ReadFile(digestsPath)
	if err == nil {
		err = json.Unmarshal(blob, &pinned.want)
	}
	if err != nil && !*updateDigests {
		fmt.Fprintln(os.Stderr, "chaos: reading pinned digests:", err)
		os.Exit(1)
	}
	code := m.Run()
	if *updateDigests && code == 0 {
		for k, v := range pinned.got {
			pinned.want[k] = v
		}
		blob, err := json.MarshalIndent(pinned.want, "", "  ")
		if err == nil {
			if err = os.MkdirAll("testdata", 0o755); err == nil {
				err = os.WriteFile(digestsPath, append(blob, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos: writing pinned digests:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// checkPinned compares one sweep digest with the committed record (or
// records it under -update). name is the sweep and the configuration the
// calling test runs it at.
func checkPinned(t *testing.T, name, digest string) {
	t.Helper()
	pinned.Lock()
	defer pinned.Unlock()
	if *updateDigests {
		pinned.got[name] = digest
		return
	}
	switch want, ok := pinned.want[name]; {
	case !ok:
		t.Errorf("%s: no pinned digest in %s (record it with -update)", name, digestsPath)
	case want != digest:
		t.Errorf("%s: digest moved:\n  got:  %s\n  want: %s", name, digest, want)
	}
}
