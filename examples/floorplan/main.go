// Floorplan demonstrates the Space Modeler's two creation paths (paper
// Fig. 2): semi-automatic raster tracing of a floorplan image, followed by
// interactive refinement — tag assignment, styling, undo — and DSM
// compilation.
//
//	go run ./examples/floorplan
package main

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"log"
	"os"
	"path/filepath"

	"trips"
	"trips/internal/dsm"
	"trips/internal/viewer"
)

func main() {
	log.SetFlags(0)

	// Step 1 — "import the floorplan image": paint one programmatically
	// (a corridor with four rooms, door gaps in mid-gray) and save it so
	// the example is inspectable.
	img := paintFloorplan(360, 200)
	dir, err := os.MkdirTemp("", "trips-floorplan-*")
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "floorplan.png"))
	if err != nil {
		log.Fatal(err)
	}
	if err := png.Encode(f, img); err != nil {
		log.Fatal(err)
	}
	f.Close()

	// Step 2 — "trace the floorplan image": the raster tracer extracts the
	// corridor, rooms and doors as drawn shapes.
	canvas, err := trips.TraceFloorplan(img, 1)
	if err != nil {
		log.Fatal(err)
	}
	shapes := canvas.Shapes()
	fmt.Printf("traced %d shapes from the image:\n", len(shapes))
	for _, s := range shapes {
		fmt.Printf("  #%d %-8s %-9s area %.1f m²\n", s.ID, s.EntityKind, s.Kind, s.Polygon.Area())
	}

	// Step 3 — "load and attach the semantic tags": refine the traced
	// canvas interactively.
	tags := []struct{ tag, cat string }{
		{"Reception", "service"}, {"Showroom", "shop"}, {"Workshop", "service"}, {"Storage", "logistics"},
	}
	i := 0
	for _, s := range shapes {
		switch {
		case s.EntityKind == trips.KindHallway:
			if err := canvas.AssignTag(s.ID, "Corridor", "hall"); err != nil {
				log.Fatal(err)
			}
		case s.EntityKind == trips.KindRoom && i < len(tags):
			if err := canvas.AssignTag(s.ID, tags[i].tag, tags[i].cat); err != nil {
				log.Fatal(err)
			}
			if err := canvas.SetStyle(s.ID, "fill", "#ffe8c0"); err != nil {
				log.Fatal(err)
			}
			i++
		}
	}
	// Editing conveniences: a mistaken extra shape, undone.
	id, err := canvas.DrawCircle(trips.KindObstacle, "oops", trips.Pt(5, 5), 1)
	if err != nil {
		log.Fatal(err)
	}
	_ = id
	canvas.Undo()
	fmt.Printf("tagged %d rooms; undid the accidental pillar\n", i)

	// Compile and inspect the DSM.
	model, err := trips.BuildDSM("traced-venue", canvas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDSM %q: %d entities, %d regions\n", model.Name, len(model.Entities), len(model.Regions))
	for _, tg := range tags {
		r := model.RegionByTag(tg.tag)
		if r == nil {
			log.Fatalf("region %s missing", tg.tag)
		}
		adj := model.AdjacentRegions(r.ID)
		names := make([]string, 0, len(adj))
		for _, a := range adj {
			names = append(names, model.Region(a).Tag)
		}
		fmt.Printf("  %-10s floor %v, center %v, adjacent: %v\n", r.Tag, r.Floor, r.Center(), names)
	}

	// Topology check: walking distance between the two farthest rooms.
	a := model.RegionByTag("Reception")
	b := model.RegionByTag("Storage")
	d, ok := model.WalkingDistance(
		dsm.Location{P: a.Center(), Floor: a.Floor},
		dsm.Location{P: b.Center(), Floor: b.Floor},
	)
	if !ok {
		log.Fatal("traced venue is not connected")
	}
	fmt.Printf("\nindoor walking distance %s → %s: %.1f m (euclidean %.1f m)\n",
		a.Tag, b.Tag, d, a.Center().Dist(b.Center()))

	// Render the venue map.
	v := viewer.NewView(model)
	svgPath := filepath.Join(dir, "venue.svg")
	if err := os.WriteFile(svgPath, []byte(viewer.RenderSVG(v, viewer.RenderOptions{})), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifacts: %s/floorplan.png, %s\n", dir, svgPath)
}

// paintFloorplan draws the raster: black walls, white free space, gray
// door gaps. Scale: 0.25 m/px.
func paintFloorplan(w, h int) *image.Gray {
	img := image.NewGray(image.Rect(0, 0, w, h))
	fill := func(x0, y0, x1, y1 int, v uint8) {
		for y := y0; y < y1 && y < h; y++ {
			for x := x0; x < x1 && x < w; x++ {
				img.SetGray(x, y, color.Gray{Y: v})
			}
		}
	}
	corridorTop := h / 3
	fill(4, 4, w-4, corridorTop, 255)
	rooms := 4
	rw := (w - 8) / rooms
	for i := 0; i < rooms; i++ {
		x0 := 4 + i*rw
		fill(x0+4, corridorTop+4, x0+rw-4, h-4, 255)
		fill(x0+rw/2-6, corridorTop, x0+rw/2+6, corridorTop+4, 128)
	}
	return img
}
