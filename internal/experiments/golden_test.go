package experiments

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestQuickArtifactsGolden renders every registered artifact at quick
// fidelity exactly as `deeprecsys all` prints it and compares the bytes with
// testdata/all_quick.golden, captured at the commit before the capacity
// search started bracketing from the top. The other tests in this package
// assert shapes; this one is the "identical simulator bytes" invariant for
// everything between the experiments layer and internal/sim. After an
// intended behaviour change, regenerate the file with
// `go run ./cmd/deeprecsys all > internal/experiments/testdata/all_quick.golden`.
func TestQuickArtifactsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden captured on amd64; %s may fuse multiply-adds in the cost models and round differently", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("renders all 17 artifacts (seconds)")
	}
	want, err := os.ReadFile("testdata/all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range IDs() {
		runner, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&got, runner(Quick()))
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	// Name the first differing line: the whole output is 11 KB.
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d differs (captured under go1.24 on amd64; this is %s):\n got: %s\nwant: %s",
				i+1, runtime.Version(), gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output is %d bytes in %d lines, golden %d bytes in %d lines (%s)",
		got.Len(), len(gotLines), len(want), len(wantLines), runtime.Version())
}
