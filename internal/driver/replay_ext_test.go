package driver_test

import (
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/driver"
)

// A cold fill adopts its verified final build instead of compiling the
// final sequence again, but still stores the final run in the
// run-replay layer, so the reprobe replays both the baseline and the
// final run. lulesh-seq bisects, and its final binary differs from the
// baseline's, so the two runs have distinct replay keys.
func TestColdFillThenReprobeReplaysBothRuns(t *testing.T) {
	store, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	probe := func() *driver.Result {
		spec := apps.ByID("lulesh-seq").Spec()
		spec.Cache = store
		spec.Workers = 8
		res, err := driver.Probe(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := probe()
	if cold.Final.Compile.ExeHash() == cold.Baseline.Compile.ExeHash() {
		t.Fatal("final binary equals the baseline's; the test needs distinct run keys")
	}
	if cold.RunsReplayed != 0 {
		t.Fatalf("cold fill replayed %d runs, want 0", cold.RunsReplayed)
	}
	warm := probe()
	if warm.RunsReplayed != 2 {
		t.Fatalf("reprobe replayed %d runs, want 2", warm.RunsReplayed)
	}
	if warm.FinalSeq.String() != cold.FinalSeq.String() || warm.Final.Run.Stdout != cold.Final.Run.Stdout {
		t.Fatalf("reprobe diverged from the cold fill: %q vs %q", warm.FinalSeq, cold.FinalSeq)
	}
}
