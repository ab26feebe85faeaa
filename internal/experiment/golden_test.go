package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// textOf returns the named registry entry's text rendering as a runWidth
// callback, failing the test if there is no such entry.
func textOf(t testing.TB, name string) func() (string, error) {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no registry entry %q", name)
	}
	return func() (string, error) { return e.Render(Text) }
}

// TestGoldenMatrix pins every registry entry that has a committed fixture,
// testdata/golden/<entry>.golden, to it byte for byte: Table 3, Figures
// 7–10, the two stage breakdowns and the storms. The fixtures were generated
// before the exit path was decomposed into the staged transaction pipeline,
// so this test is the regression fence for the refactor: any drift in
// charging order, interceptor gating or settle accounting shows up as a diff
// here before it shows up in a reviewer's artifact run. Regenerate a fixture
// only for a deliberate model change, never to absorb an accidental one.
func TestGoldenMatrix(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no golden fixtures")
	}
	for _, path := range fixtures {
		fixture := filepath.Base(path)
		render := textOf(t, strings.TrimSuffix(fixture, ".golden"))
		t.Run(fixture, func(t *testing.T) {
			t.Parallel()
			got, err := render()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, path, got)
		})
	}
}

// checkGolden compares got with the committed fixture at path, byte for
// byte. With NVSIM_UPDATE_GOLDEN set it rewrites the fixture with got
// instead (`make golden`), only ever for a deliberate model change.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("NVSIM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from committed fixture %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
