package spec

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestDecoderKeysMatchTags pins the direct decoder's key lists to the
// schema: each lists its type's JSON field names in field order, so a
// field added to a suite type without its decoder line fails here even
// when no test document uses it.
func TestDecoderKeysMatchTags(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{Suite{}, suiteKeys},
		{Render{}, renderKeys},
		{Job{}, jobKeys},
		{Machine{}, machineKeys},
		{Overrides{}, overridesKeys},
		{Workload{}, workloadKeys},
		{Fuzz{}, fuzzKeys},
		{Sampling{}, samplingKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := range typ.NumField() {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !slices.Equal(tags, c.keys) {
			t.Errorf("%s: decoder keys %v, want the JSON field names %v", typ.Name(), c.keys, tags)
		}
	}
}
