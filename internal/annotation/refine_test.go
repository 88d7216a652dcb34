package annotation

import (
	"testing"
	"time"

	"trips/internal/geom"
	"trips/internal/semantics"
	"trips/internal/testvenue"
)

// TestRefineSplitsAdjacentDwells reproduces the failure mode that motivated
// region-boundary refinement: two dwells in adjacent shops share one density
// cluster when the positioning noise bridges the wall, and must still yield
// two distinct spatial annotations.
func TestRefineSplitsAdjacentDwells(t *testing.T) {
	m := testvenue.MustTwoFloor()
	em, err := TrainEventModel(trainingSet(t), NewGaussianNB(), DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnnotator(m, em, DefaultConfig())

	// Dwell near the Adidas side of the Adidas|Nike wall, then directly on
	// the Nike side: x ≈ 8 then x ≈ 12 (boundary at x = 10).
	g := lcg(77)
	s := seqFrom(
		stayRecords(&g, geom.Pt(8, 15), 1, t0, 60, 5*time.Second),
		stayRecords(&g, geom.Pt(12, 15), 1, t0.Add(5*time.Minute+5*time.Second), 60, 5*time.Second),
	)
	sem := a.Annotate(s)
	var regions []string
	for _, tr := range sem.Triplets {
		regions = append(regions, tr.Region)
	}
	hasAdidas, hasNike := false, false
	for _, r := range regions {
		if r == "Adidas" {
			hasAdidas = true
		}
		if r == "Nike" {
			hasNike = true
		}
	}
	if !hasAdidas || !hasNike {
		t.Errorf("adjacent dwells not separated: %v", regions)
	}
}

// TestConsolidationMergesFragments checks that one dwell fragmented by
// density flicker and short gaps comes out as a single triplet.
func TestConsolidationMergesFragments(t *testing.T) {
	m := testvenue.MustTwoFloor()
	em, err := TrainEventModel(trainingSet(t), NewGaussianNB(), DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnnotator(m, em, DefaultConfig())

	// One dwell with a 6-minute dropout in the middle: the splitter cuts
	// at gaps above its 5-minute MaxGap, so this yields two snippets. With
	// MergeGap above the dropout, consolidation reunites them.
	g := lcg(88)
	s := seqFrom(
		stayRecords(&g, geom.Pt(5, 15), 1, t0, 60, 5*time.Second),
		stayRecords(&g, geom.Pt(5, 15), 1, t0.Add(11*time.Minute), 60, 5*time.Second),
	)
	cfg := DefaultConfig()
	cfg.MergeGap = 7 * time.Minute
	aMerge := NewAnnotator(m, em, cfg)
	sem := aMerge.Annotate(s)
	stays := 0
	for _, tr := range sem.Triplets {
		if tr.Region == "Adidas" && tr.Event == semantics.EventStay {
			stays++
		}
	}
	if stays != 1 {
		t.Errorf("fragmented dwell yields %d Adidas stays, want 1: %v", stays, sem)
	}
	// Disabled merging keeps the fragments.
	cfg2 := DefaultConfig()
	cfg2.MergeGap = 0
	a2 := NewAnnotator(m, em, cfg2)
	sem2 := a2.Annotate(s)
	if sem2.Len() < 2 {
		t.Errorf("MergeGap=0 still merged: %v", sem2)
	}
	_ = a // the default annotator is exercised elsewhere in this file
}

// TestRefineKeepsIndexLinkage verifies that refined and merged snippets
// still tile the record range exactly.
func TestRefineKeepsIndexLinkage(t *testing.T) {
	m := testvenue.MustTwoFloor()
	em, err := TrainEventModel(trainingSet(t), NewGaussianNB(), DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnnotator(m, em, DefaultConfig())
	g := lcg(99)
	s := seqFrom(
		stayRecords(&g, geom.Pt(8, 15), 1, t0, 40, 5*time.Second),
		walkRecords(&g, geom.Pt(8, 11), geom.Pt(25, 11), 1, t0.Add(4*time.Minute), 5*time.Second),
		stayRecords(&g, geom.Pt(25, 15), 1, t0.Add(6*time.Minute), 40, 5*time.Second),
	)
	sem := a.Annotate(s)
	next := 0
	for i, tr := range sem.Triplets {
		if tr.FirstIdx != next {
			t.Fatalf("triplet %d starts at %d, want %d", i, tr.FirstIdx, next)
		}
		if tr.LastIdx < tr.FirstIdx || tr.LastIdx >= s.Len() {
			t.Fatalf("triplet %d bad range [%d,%d]", i, tr.FirstIdx, tr.LastIdx)
		}
		next = tr.LastIdx + 1
	}
	if next != s.Len() {
		t.Fatalf("triplets cover %d of %d records", next, s.Len())
	}
}
