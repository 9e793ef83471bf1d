package server

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// keyOf runs a raw JSON submission through the exact wire path —
// strict decode, canonicalize, hash — so the equivalence tests cover
// encoding variants, not just Go-level struct equality.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	req, err := decodeJobRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	cj, err := Canonicalize(req)
	if err != nil {
		t.Fatalf("canonicalize %s: %v", body, err)
	}
	return cj.Key()
}

// equivalentSubmissions groups bodies that are one cache entry each:
// reordered fields, spelled-out defaults, seed-spec strings vs explicit
// arrays, and operational knobs (timeout) must all collide on the same
// key.
var equivalentSubmissions = [][]string{
	{
		`{"experiment":"E1"}`,
		`{"experiment":"E1","options":{}}`,
		`{"experiment":"E1","options":{"seed":1}}`, // seed 1 is the default
		`{"options":{"seed":0},"experiment":"E1"}`, // seed 0 normalizes to 1
		`{"experiment":"E1","timeout_seconds":3}`,  // operational, never keyed
	},
	{
		`{"experiment":"E1","seeds":"1..4"}`,
		`{"experiment":"E1","seeds":[1,2,3,4]}`,
		`{"seeds":"1..4","experiment":"E1","options":{"seed":1}}`,
	},
	{
		`{"experiment":"E3","options":{"quick":true,"seed":7}}`,
		`{"options":{"seed":7,"quick":true},"experiment":"E3"}`,
	},
}

// distinctSubmissions must all key differently: anything that changes
// output bytes changes the key. Seed *order* is significant: the
// streaming fold is order-sensitive.
var distinctSubmissions = []string{
	`{"experiment":"E1"}`,
	`{"experiment":"E2"}`,
	`{"experiment":"E1","options":{"seed":2}}`,
	`{"experiment":"E1","options":{"quick":true}}`,
	`{"experiment":"E1","seeds":[1,2]}`,
	`{"experiment":"E1","seeds":[2,1]}`,
}

// rejectedSubmissions fail the strict decoder or Canonicalize.
var rejectedSubmissions = []string{
	`{"experiment":"E999"}`,                            // unknown experiment
	`{"experiment":"E1","seeds":[]}`,                   // empty sweep
	`{"experiment":"E1","seeds":[3,3]}`,                // duplicate seed skews mean±sd
	`{"experiment":"E1","seeds":[0,1]}`,                // seed 0 runs as seed 1: one sample twice
	`{"experiment":"E1","seeds":"0..3"}`,               // the same through a spec
	`{"experiment":"E1","seeds":"nonsense"}`,           // unparsable spec
	`{"experiment":"E1","seeds":"1..4","stream":true}`, // retired field
	`{"experiment":"E1","options":{"shards":4}}`,       // retired option
}

func TestCanonicalKeyEquivalentSubmissions(t *testing.T) {
	for gi, group := range equivalentSubmissions {
		want := keyOf(t, group[0])
		for _, body := range group[1:] {
			if got := keyOf(t, body); got != want {
				t.Errorf("group %d: %s keyed %s, want %s (as %s)", gi, body, got, want, group[0])
			}
		}
	}
}

func TestCanonicalKeyDistinctSubmissions(t *testing.T) {
	seen := make(map[string]string)
	for _, body := range distinctSubmissions {
		key := keyOf(t, body)
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share key %s", body, prev, key)
		}
		seen[key] = body
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	for _, body := range rejectedSubmissions {
		req, err := decodeJobRequest(strings.NewReader(body))
		if err == nil {
			_, err = Canonicalize(req)
		}
		if err == nil {
			t.Errorf("%s: want validation error, got none", body)
		}
	}
}

// FuzzCanonicalize: any body either fails the strict decoder or
// Canonicalize, or reduces to a canonical job that is a fixed point —
// resubmitted in canonical form, seeds as an explicit array, it yields
// the same CanonicalJob and key. A sweep's plan holds 1..1<<20 seeds,
// none of them 0.
func FuzzCanonicalize(f *testing.F) {
	for _, group := range equivalentSubmissions {
		for _, body := range group {
			f.Add(body)
		}
	}
	for _, body := range append(distinctSubmissions, rejectedSubmissions...) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeJobRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		cj, err := Canonicalize(req)
		if err != nil {
			return
		}
		if len(cj.Seeds) > 1<<20 {
			t.Fatalf("%s: %d seeds", body, len(cj.Seeds))
		}
		if slices.Contains(cj.Seeds, 0) {
			t.Fatalf("%s: plan holds seed 0, an alias of seed 1", body)
		}
		wire := map[string]any{
			"experiment": cj.Experiment,
			"options":    map[string]any{"seed": cj.Seed, "quick": cj.Quick},
		}
		if len(cj.Seeds) > 0 {
			wire["seeds"] = cj.Seeds
		}
		data, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		req2, err := decodeJobRequest(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("canonical resubmission %s: %v", data, err)
		}
		cj2, err := Canonicalize(req2)
		if err != nil {
			t.Fatalf("canonical resubmission %s: %v", data, err)
		}
		if !reflect.DeepEqual(cj, cj2) || cj.Key() != cj2.Key() {
			t.Fatalf("%s canonicalizes to %+v, its resubmission %s to %+v", body, cj, data, cj2)
		}
	})
}
