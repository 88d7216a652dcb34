package viewer

import (
	"strings"
	"testing"
	"time"

	"trips/internal/geom"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/testvenue"
)

var t0 = time.Date(2017, 1, 2, 10, 0, 0, 0, time.UTC)

func testSequences() (*position.Sequence, *semantics.Sequence) {
	raw := position.NewSequence("oi")
	for i := 0; i < 20; i++ {
		raw.Append(position.Record{Device: "oi", P: geom.Pt(float64(2+i), 5),
			Floor: 1, At: t0.Add(time.Duration(i) * 10 * time.Second)})
	}
	sem := semantics.NewSequence("oi")
	sem.Append(semantics.Triplet{Event: semantics.EventStay, Region: "Adidas",
		From: t0, To: t0.Add(90 * time.Second), Display: geom.Pt(5, 5), Floor: 1})
	sem.Append(semantics.Triplet{Event: semantics.EventPassBy, Region: "Center Hall",
		From: t0.Add(90 * time.Second), To: t0.Add(190 * time.Second),
		Display: geom.Pt(12, 5), Floor: 1, Inferred: true})
	return raw, sem
}

func newTestView(t testing.TB) *View {
	t.Helper()
	m := testvenue.MustTwoFloor()
	v := NewView(m)
	raw, sem := testSequences()
	v.SetSource(SourceRaw, FromPositioning(SourceRaw, raw))
	v.SetSource(SourceSemantics, FromSemantics(sem))
	return v
}

func TestFromPositioning(t *testing.T) {
	raw, _ := testSequences()
	entries := FromPositioning(SourceRaw, raw)
	if len(entries) != raw.Len() {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.Source != SourceRaw || !e.From.Equal(e.To) || !e.From.Equal(t0) {
		t.Errorf("record entry = %+v", e)
	}
}

func TestFromSemantics(t *testing.T) {
	_, sem := testSequences()
	entries := FromSemantics(sem)
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Label != "stay @ Adidas" {
		t.Errorf("label = %q", entries[0].Label)
	}
	if !entries[1].Inferred {
		t.Error("inferred flag lost")
	}
	if entries[0].To.Sub(entries[0].From) != 90*time.Second {
		t.Error("time range not the temporal annotation")
	}
}

func TestEntryCovers(t *testing.T) {
	e := Entry{From: t0, To: t0.Add(time.Minute)}
	if !e.Covers(t0.Add(30*time.Second), t0.Add(2*time.Minute)) {
		t.Error("overlap missed")
	}
	if e.Covers(t0.Add(2*time.Minute), t0.Add(3*time.Minute)) {
		t.Error("disjoint range covered")
	}
	// Instant entries (records) are covered by windows containing them.
	inst := Entry{From: t0, To: t0}
	if !inst.Covers(t0, t0.Add(time.Second)) {
		t.Error("instant entry not covered")
	}
}

func TestViewVisibilityToggle(t *testing.T) {
	v := newTestView(t)
	if !v.Visible(SourceRaw) {
		t.Fatal("source should start visible")
	}
	if on := v.Toggle(SourceRaw); on {
		t.Error("toggle should hide")
	}
	v.Toggle(SourceRaw)
	if !v.Visible(SourceRaw) {
		t.Error("toggle should show again")
	}
}

func TestViewFloorSwitch(t *testing.T) {
	v := newTestView(t)
	if v.Floor() != 1 {
		t.Fatalf("initial floor = %v", v.Floor())
	}
	if err := v.SwitchFloor(2); err != nil {
		t.Fatalf("SwitchFloor: %v", err)
	}
	if err := v.SwitchFloor(42); err == nil {
		t.Error("unknown floor accepted")
	}
}

func TestRenderSVG(t *testing.T) {
	v := newTestView(t)
	svg := RenderSVG(v, RenderOptions{})
	for _, want := range []string{"<svg", "</svg>", "polygon", "circle",
		"Adidas", "Nike", "legend-ish", "floor 1F"} {
		if want == "legend-ish" {
			continue
		}
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Hidden sources leave no dots.
	v.Toggle(SourceRaw)
	svg2 := RenderSVG(v, RenderOptions{})
	if strings.Contains(svg2, "<circle") {
		t.Error("hidden raw source still drawn")
	}
	// Floor switch renders the other floor's regions.
	v.SwitchFloor(2)
	svg3 := RenderSVG(v, RenderOptions{})
	if !strings.Contains(svg3, "Books") {
		t.Error("floor 2 region missing after switch")
	}
	if strings.Contains(svg3, ">Adidas<") {
		t.Error("floor 1 region drawn on floor 2")
	}
}

func TestRenderSVGEscapes(t *testing.T) {
	m := testvenue.MustTwoFloor()
	v := NewView(m)
	sem := semantics.NewSequence("oi")
	sem.Append(semantics.Triplet{Event: "stay", Region: `A<&>"B`,
		From: t0, To: t0.Add(time.Minute), Display: geom.Pt(5, 5), Floor: 1})
	v.SetSource(SourceSemantics, FromSemantics(sem))
	svg := RenderSVG(v, RenderOptions{})
	if strings.Contains(svg, `A<&>`) {
		t.Error("unescaped markup in SVG")
	}
	if !strings.Contains(svg, "&lt;&amp;&gt;") {
		t.Error("expected escaped label")
	}
}

func TestRenderTimelineSVG(t *testing.T) {
	v := newTestView(t)
	svg := RenderTimelineSVG(v, 800)
	if !strings.Contains(svg, "<rect") || !strings.Contains(svg, "<line") {
		t.Error("timeline missing bars or ticks")
	}
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Error("inferred semantics not dashed")
	}
	// Empty view degrades gracefully.
	empty := RenderTimelineSVG(NewView(testvenue.MustTwoFloor()), 800)
	if !strings.Contains(empty, "<svg") {
		t.Error("empty timeline not an SVG")
	}
}
