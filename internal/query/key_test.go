package query

import (
	"fmt"
	"strings"
	"testing"
)

// keySelectors covers both sides, an out-of-range side, empty values and
// values containing the separators themselves.
var keySelectors = []Selector{
	{Side: ReviewerSide, Attr: "gender", Value: "female"},
	{Side: ItemSide, Attr: "city", Value: "Las Vegas"},
	{Side: ItemSide, Attr: "cuisine", Value: ""},
	{Side: ReviewerSide, Attr: "age", Value: "a\x00b\x01c"},
	{Side: Side(12), Attr: "x", Value: "y"},
	{Side: Side(-3), Attr: "x", Value: "y"},
}

// TestSelectorKeysMatchFormattedForm pins the identity strings byte for
// byte to their formatted definitions, which persisted traces, cache keys
// and the group cache were built on.
func TestSelectorKeysMatchFormattedForm(t *testing.T) {
	for _, s := range keySelectors {
		if got, want := s.Key(), fmt.Sprintf("%d\x00%s\x00%s", s.Side, s.Attr, s.Value); got != want {
			t.Errorf("Key(%+v) = %q, want %q", s, got, want)
		}
		if got, want := s.AttrKey(), fmt.Sprintf("%d\x00%s", s.Side, s.Attr); got != want {
			t.Errorf("AttrKey(%+v) = %q, want %q", s, got, want)
		}
	}
}

// TestDescriptionKeyMatchesJoinedForm: the description key is the
// \x01-joined selector keys in canonical order, for zero, one and many
// selectors.
func TestDescriptionKeyMatchesJoinedForm(t *testing.T) {
	descs := []Description{
		{},
		MustDescription(keySelectors[0]),
		MustDescription(keySelectors[:4]...),
		{selectors: keySelectors},
	}
	for _, d := range descs {
		parts := make([]string, 0, d.Len())
		for _, s := range d.selectors {
			parts = append(parts, fmt.Sprintf("%d\x00%s\x00%s", s.Side, s.Attr, s.Value))
		}
		if got, want := d.Key(), strings.Join(parts, "\x01"); got != want {
			t.Errorf("Key(%v) = %q, want %q", d, got, want)
		}
	}
}

// TestSelectorKeyAllocs: a selector key is one string concatenation.
func TestSelectorKeyAllocs(t *testing.T) {
	s := keySelectors[1]
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = s.Key() }); n > 1 {
		t.Fatalf("Selector.Key allocates %v times, want at most 1", n)
	}
	_ = sink
}
