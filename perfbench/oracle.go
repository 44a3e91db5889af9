package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The correctness oracle: one sha256 per experiment of the tiny `run all`
// renders. digests.json is what every render is checked against;
// renders.json holds the renders themselves, which seedStore stores as
// every seeded job's result. Both are regenerated together by
// `--write-oracle <dir>` from an unchanged tree.
//
//go:embed oracle/digests.json oracle/renders.json
var oracleFiles embed.FS

type oracle struct {
	digests map[string]string
	renders map[string]string
}

func digest(render string) string {
	sum := sha256.Sum256([]byte(render))
	return hex.EncodeToString(sum[:])
}

// loadOracle reads the embedded oracle and checks the stored renders
// against the digests, so seeded jobs carry exactly the renders a
// campaign produces.
func loadOracle() (*oracle, error) {
	o := &oracle{}
	for name, into := range map[string]*map[string]string{
		"oracle/digests.json": &o.digests,
		"oracle/renders.json": &o.renders,
	} {
		data, err := oracleFiles.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", name, err)
		}
	}
	if len(o.digests) == 0 || len(o.renders) != len(o.digests) {
		return nil, fmt.Errorf("oracle: %d digests for %d renders", len(o.digests), len(o.renders))
	}
	if bad := o.check(o.renders); len(bad) > 0 {
		return nil, fmt.Errorf("oracle: stored renders disagree with digests: %v", bad)
	}
	return o, nil
}

// check returns the experiment IDs whose render is missing from the
// oracle or differs from its digest, in sorted order.
func (o *oracle) check(renders map[string]string) []string {
	var bad []string
	for id, r := range renders {
		if want, ok := o.digests[id]; !ok || digest(r) != want {
			bad = append(bad, id)
		}
	}
	sort.Strings(bad)
	return bad
}

// writeOracle stores renders and their digests under dir/oracle.
func writeOracle(dir string, renders map[string]string) error {
	digests := map[string]string{}
	for id, r := range renders {
		digests[id] = digest(r)
	}
	for name, v := range map[string]map[string]string{"digests.json": digests, "renders.json": renders} {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "oracle", name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
