package bench

import (
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRunSpillReleasesLog runs 200 budgeted scenarios back to back with
// the collector off — so no finalizer can close a forgotten file — and
// requires the process to hold as many descriptors afterwards as before:
// RunSpill closes its manager's segment log itself.
func TestRunSpillReleasesLog(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	countFDs := func() int {
		t.Helper()
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	sc, err := ByName(SpillTight)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := countFDs()
	for i := 0; i < 200; i++ {
		_, st, err := sc.RunSpill()
		if err != nil {
			t.Fatal(err)
		}
		if st.Evictions == 0 {
			t.Fatal("the scenario never evicted, so never opened a log")
		}
	}
	if after := countFDs(); after != before {
		t.Fatalf("%d descriptors open before 200 budgeted runs, %d after", before, after)
	}
}
