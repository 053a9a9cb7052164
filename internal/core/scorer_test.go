package core

import (
	"testing"

	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

func TestEquationTwoScorerMatchesOperationUtility(t *testing.T) {
	ex := coreExplorer(t)
	seen := ratingmap.NewSeenSet()
	op := query.Operation{Target: query.MustDescription(
		query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})}
	a, err := EquationTwoScorer{}.ScoreOperation(ex, op, seen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.OperationUtility(op, seen)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("scorer %v vs direct %v", a, b)
	}
}

func TestLogAffinityScorerBoosts(t *testing.T) {
	ex := coreExplorer(t)
	seen := ratingmap.NewSeenSet()
	sel := query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"}
	op := query.Operation{Target: query.MustDescription(sel), Added: &sel}

	plain := &LogAffinityScorer{Alpha: 0.5}
	before, err := plain.ScoreOperation(ex, op, seen)
	if err != nil {
		t.Fatal(err)
	}
	// Record interest in the gender attribute, then rescore.
	plain.Observe(op)
	after, err := plain.ScoreOperation(ex, op, seen)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("affinity boost missing: %v vs %v", after, before)
	}
	// An operation on an unrelated attribute gets no boost.
	other := query.Selector{Side: query.ItemSide, Attr: "parking", Value: "yes"}
	opOther := query.Operation{Target: query.MustDescription(other), Added: &other}
	base, err := EquationTwoScorer{}.ScoreOperation(ex, opOther, seen)
	if err != nil {
		t.Fatal(err)
	}
	scored, err := plain.ScoreOperation(ex, opOther, seen)
	if err != nil {
		t.Fatal(err)
	}
	if scored != base {
		t.Fatalf("unrelated op must not be boosted: %v vs %v", scored, base)
	}
}

func TestLogAffinityScorerZeroAlpha(t *testing.T) {
	ex := coreExplorer(t)
	seen := ratingmap.NewSeenSet()
	sel := query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"}
	op := query.Operation{Target: query.MustDescription(sel), Added: &sel}
	l := &LogAffinityScorer{Alpha: 0}
	l.Observe(op)
	a, _ := l.ScoreOperation(ex, op, seen)
	b, _ := EquationTwoScorer{}.ScoreOperation(ex, op, seen)
	if a != b {
		t.Fatal("alpha 0 must degrade to Equation 2")
	}
}

func TestCustomScorerWiredThroughRecommend(t *testing.T) {
	db := coreDB(t)
	cfg := DefaultConfig()
	cfg.Limits.MaxCandidates = 10
	cfg.Scorer = constantScorer{}
	ex, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb := RecommendationBuilder{Ex: ex}
	recs, _, err := rb.Recommend(query.Description{}, nil, ratingmap.NewSeenSet(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Utility != 42 {
			t.Fatalf("custom scorer ignored: %v", r.Utility)
		}
	}
}

type constantScorer struct{}

func (constantScorer) ScoreOperation(*Explorer, query.Operation, *ratingmap.SeenSet) (float64, error) {
	return 42, nil
}

func TestSessionBack(t *testing.T) {
	ex := coreExplorer(t)
	sess, err := NewSession(ex, UserDriven, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Back() {
		t.Fatal("Back on fresh session must report false")
	}
	d1 := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	d2 := query.MustDescription(query.Selector{Side: query.ItemSide, Attr: "parking", Value: "yes"})
	if err := sess.ApplyDescription(d1); err != nil {
		t.Fatal(err)
	}
	if err := sess.ApplyDescription(d2); err != nil {
		t.Fatal(err)
	}
	if !sess.Back() || !sess.Current().Equal(d1) {
		t.Fatalf("Back landed on %s, want %s", sess.Current(), d1)
	}
	if !sess.Back() || !sess.Current().IsEmpty() {
		t.Fatalf("second Back landed on %s, want TRUE", sess.Current())
	}
	if sess.Back() {
		t.Fatal("history exhausted; Back must report false")
	}
	// Re-applying the current description must not pollute the history.
	if err := sess.ApplyDescription(query.Description{}); err != nil {
		t.Fatal(err)
	}
	if sess.Back() {
		t.Fatal("no-op apply must not create history")
	}
}

func TestSessionFeedsLogAffinityScorer(t *testing.T) {
	db := coreDB(t)
	cfg := DefaultConfig()
	scorer := &LogAffinityScorer{Alpha: 1}
	cfg.Scorer = scorer
	ex, err := NewExplorer(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ex, UserDriven, query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	d := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	if err := sess.ApplyDescription(d); err != nil {
		t.Fatal(err)
	}
	if scorer.total == 0 {
		t.Fatal("session did not feed the log scorer")
	}
}

// warmOpUtilityAllocs bounds the heap allocations of one warm
// OperationUtility call: group-cache and engine-cache hits, the candidate
// list, record sampling, the finalize pass over the cached BaseSet, the
// k′ snapshots' shared backing arrays, and GMM's bookkeeping. None of it
// grows with the number of candidate pairs GMM compares. Measured at 36;
// the bound leaves room for toolchain drift, not for per-pair allocations.
const warmOpUtilityAllocs = 45

// TestOperationUtilityWarmAllocs: once an operation's target group and
// accumulator are cached, evaluating it again allocates no more than a
// small constant.
func TestOperationUtilityWarmAllocs(t *testing.T) {
	ex := coreExplorer(t)
	seen := ratingmap.NewSeenSet()
	op := query.Operation{Target: query.MustDescription(
		query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})}
	want, err := ex.OperationUtility(op, seen)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if u, err := ex.OperationUtility(op, seen); err != nil || u != want {
			t.Fatalf("warm call = %v, %v; want %v", u, err, want)
		}
	})
	t.Logf("warm OperationUtility: %v allocations", n)
	if n > warmOpUtilityAllocs {
		t.Fatalf("warm OperationUtility allocates %v times, want at most %d", n, warmOpUtilityAllocs)
	}
}
