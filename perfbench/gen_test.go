package main

import (
	"reflect"
	"testing"

	"voltsmooth/internal/api"
)

func sequence(seed int64, client, n int) []string {
	g := newSpecGen(seed, client)
	out := make([]string, n)
	for i := range out {
		spec, _ := g.next()
		out[i] = spec.ConfigFingerprint()
	}
	return out
}

func TestSpecGenSeeded(t *testing.T) {
	a, b := sequence(7, 0, 300), sequence(7, 0, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different spec sequences")
	}
	if reflect.DeepEqual(a, sequence(8, 0, 300)) {
		t.Fatal("different seeds gave the same spec sequence")
	}
	if reflect.DeepEqual(a, sequence(7, 1, 300)) {
		t.Fatal("different clients gave the same spec sequence")
	}
}

// Fresh specs never collide across clients (each would be a cache miss),
// repeats always name a spec the same client issued before, and about
// repeatShare of a long sequence repeats.
func TestSpecGenMix(t *testing.T) {
	seen := map[string]int{} // fingerprint -> client that issued it fresh
	repeats, total := 0, 0
	for client := 0; client < 4; client++ {
		g := newSpecGen(3, client)
		for i := 0; i < 2000; i++ {
			spec, repeat := g.next()
			fp := spec.ConfigFingerprint()
			total++
			owner, known := seen[fp]
			switch {
			case repeat:
				repeats++
				if !known || owner != client {
					t.Fatalf("client %d repeated a spec it never issued", client)
				}
			case known:
				t.Fatalf("client %d issued a fresh spec already issued by client %d", client, owner)
			default:
				seen[fp] = client
			}
			if _, err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if share := float64(repeats) / float64(total); share < 0.45 || share > 0.55 {
		t.Fatalf("repeat share %.3f, want about %.2f", share, repeatShare)
	}
}

func TestReadGenSeeded(t *testing.T) {
	ids := func(seed int64, client int) []string {
		g := newReadGen(seed, client, 3000)
		out := make([]string, 300)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a := ids(7, 0)
	if !reflect.DeepEqual(a, ids(7, 0)) {
		t.Fatal("the same seed gave different job sequences")
	}
	if reflect.DeepEqual(a, ids(8, 0)) || reflect.DeepEqual(a, ids(7, 1)) {
		t.Fatal("a different seed or client gave the same job sequence")
	}
	for _, id := range a {
		if id < api.JobID(1) || id > api.JobID(3000) {
			t.Fatalf("job %s is not among the 3000 stored", id)
		}
	}
}
