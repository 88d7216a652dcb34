package floorplan

import (
	"fmt"

	"trips/internal/dsm"
	"trips/internal/geom"
)

// BuildOptions control DSM compilation.
type BuildOptions struct {
	// CircleSegments polygonizes circles (default 16).
	CircleSegments int
}

// Build compiles one or more floor canvases into a frozen DSM: shapes become
// entities (circles polygonized) and tagged shapes
// additionally yield semantic regions ("the system reads the drawn indoor
// entities' geometric properties and semantic tags, and computes the
// topological relations").
func Build(name string, opts BuildOptions, canvases ...*Canvas) (*dsm.Model, error) {
	if opts.CircleSegments < 3 {
		opts.CircleSegments = 16
	}
	m := dsm.New(name)
	for _, c := range canvases {
		for _, s := range c.shapes {
			pg, err := shapePolygon(s, opts)
			if err != nil {
				return nil, err
			}
			eid := dsm.EntityID(fmt.Sprintf("e%d-%d", c.Floor, s.ID))
			m.AddEntity(&dsm.Entity{
				ID: eid, Kind: s.EntityKind, Name: s.Name, Floor: c.Floor,
				Shape: pg, Tags: styleTags(s),
			})
			if s.SemanticTag != "" {
				m.AddRegion(&dsm.SemanticRegion{
					ID:  dsm.RegionID(fmt.Sprintf("rg%d-%d", c.Floor, s.ID)),
					Tag: s.SemanticTag, Category: s.Category, Floor: c.Floor,
					Shape: pg, Entities: []dsm.EntityID{eid}, Style: s.Style,
				})
			}
		}
	}
	if err := m.Freeze(); err != nil {
		return nil, fmt.Errorf("floorplan: build: %w", err)
	}
	return m, nil
}

func styleTags(s Shape) map[string]string {
	if len(s.Style) == 0 {
		return nil
	}
	t := make(map[string]string, len(s.Style))
	for k, v := range s.Style {
		t["style."+k] = v
	}
	return t
}

func shapePolygon(s Shape, opts BuildOptions) (geom.Polygon, error) {
	switch s.Kind {
	case ShapePolygon:
		return s.Polygon, nil
	case ShapeCircle:
		return geom.Circ(s.Center, s.Radius).ToPolygon(opts.CircleSegments), nil
	default:
		return geom.Polygon{}, fmt.Errorf("floorplan: unknown shape kind %q", s.Kind)
	}
}
