package experiments_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/runner"
)

// oracleDigests is the benchmark's correctness oracle: one sha256 per
// experiment of the tiny `run all` renders. The test only reads it.
var oracleDigests = filepath.Join("..", "..", "perfbench", "oracle", "digests.json")

// TestRunAllRendersMatchOracle runs a tiny `run all` on a fresh session,
// as `vsmooth -scale tiny run all` does, and requires every render to hash
// to its digest in the oracle. It is the acceptance test of any change to
// the simulator's arithmetic that is not bit-exact by construction (the
// PDN cycle map, DESIGN §9.2): a figure that moves shows up here by name.
func TestRunAllRendersMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("a tiny run all takes seconds")
	}
	raw, err := os.ReadFile(oracleDigests)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", oracleDigests, err)
	}

	s := experiments.NewSession(experiments.Tiny())
	s.Workers = 2
	results, err := runner.RunBatch(context.Background(), s, experiments.All(), runner.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(want) {
		t.Errorf("run all produced %d results, oracle has %d digests", len(results), len(want))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
			continue
		}
		sum := sha256.Sum256([]byte(r.Renderer.Render()))
		if got := hex.EncodeToString(sum[:]); got != want[r.ID] {
			t.Errorf("%s: render sha256 %s, oracle %s", r.ID, got, want[r.ID])
		}
	}
}
