package api

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voltsmooth/internal/experiments"
)

// BenchmarkStoreScan times Store.Scan — boot recovery's pass over the
// store, and every fleet scan's — over 100, 1000 and 3000 finished `run
// all` jobs carrying ~30 KB of renders each: with state records, and
// without them (a store written before they existed, where every
// result.json is parsed).
func BenchmarkStoreScan(b *testing.B) {
	spec, err := JobSpec{Experiments: []string{"all"}, Scale: "tiny"}.Validate()
	if err != nil {
		b.Fatal(err)
	}
	renders := map[string]string{}
	line := "  0.950 V   1.234e-03   |##########          |  12.5%\n"
	for _, e := range experiments.All() {
		renders[e.ID] = e.ID + "\n" + strings.Repeat(line, 30_000/len(spec.Experiments)/len(line))
	}
	for _, n := range []int{100, 1000, 3000} {
		st, err := OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		// Seeded with plain writes: the files WriteResult would leave,
		// without paying its fsyncs n times over.
		for i := 1; i <= n; i++ {
			id := JobID(i)
			res := &Result{ID: id, State: StateDone, Renders: renders, Units: 500}
			data, err := encodeJSON(res)
			if err == nil {
				err = os.MkdirAll(st.jobDir(id), 0o755)
			}
			for _, f := range []struct {
				name string
				v    any
			}{{"job.json", JobRecord{ID: id, Client: "bench", Spec: spec}}, {"state.json", stateOf(res, data)}} {
				if err == nil {
					var enc []byte
					if enc, err = encodeJSON(f.v); err == nil {
						err = os.WriteFile(filepath.Join(st.jobDir(id), f.name), enc, 0o644)
					}
				}
			}
			if err == nil {
				err = os.WriteFile(st.resultPath(id), data, 0o644)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, records := range []bool{true, false} {
			if !records {
				for i := 1; i <= n; i++ {
					if err := os.Remove(st.statePath(JobID(i))); err != nil {
						b.Fatal(err)
					}
				}
			}
			name := map[bool]string{true: "state-records", false: "parse-results"}[records]
			b.Run(fmt.Sprintf("jobs=%d/%s", n, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					jobs, err := st.Scan(nil)
					if err != nil || len(jobs) != n || jobs[0].State == nil {
						b.Fatalf("scan: %d of %d jobs, %v", len(jobs), n, err)
					}
				}
			})
		}
	}
}
