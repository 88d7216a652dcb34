// Package floorplan implements the Space Modeler of the TRIPS Configurator:
// the drawing tool that turns a floorplan into a Digital Space Model, and a
// raster tracer that semi-automates the drawing from a floorplan image.
//
// The paper (Sec. 3, Fig. 2) describes a three-step flow: (1) import the
// floorplan image, (2) trace it by drawing and combining geometric elements
// (polygons, polylines, circles) with editing conveniences (undo/redo,
// auto-adjust snapping, move/resize, layer and group control), (3) attach
// semantic tags to the drawn entities. This package offers that flow as a
// programmatic API, limited to what the tracer and the examples use: a
// Canvas records polygon and circle draws, styles and tags with undo, and
// Build compiles the canvas into a frozen DSM.
package floorplan

import (
	"fmt"

	"trips/internal/dsm"
	"trips/internal/geom"
)

// ShapeKind enumerates the geometric elements the drawing tool offers.
type ShapeKind string

// Shape kinds.
const (
	ShapePolygon ShapeKind = "polygon"
	ShapeCircle  ShapeKind = "circle"
)

// Shape is one drawn element on the canvas.
type Shape struct {
	ID   int       `json:"id"`
	Kind ShapeKind `json:"kind"`

	// Entity classification and naming for DSM compilation.
	EntityKind dsm.EntityKind `json:"entityKind"`
	Name       string         `json:"name,omitempty"`

	// Geometry: Polygon for polygons, Center/Radius for circles.
	Polygon geom.Polygon `json:"polygon,omitempty"`
	Center  geom.Point   `json:"center,omitempty"`
	Radius  float64      `json:"radius,omitempty"`

	// SemanticTag and Category create a semantic region over the shape
	// when set (step 3 of the flow).
	SemanticTag string            `json:"semanticTag,omitempty"`
	Category    string            `json:"category,omitempty"`
	Style       map[string]string `json:"style,omitempty"`
}

// Canvas is the drawing surface for one floor. All mutating operations are
// recorded and undoable.
type Canvas struct {
	Floor dsm.FloorID

	// SnapRadius is the auto-adjust hint distance: new vertices within
	// this range of an existing vertex snap onto it (0 disables).
	SnapRadius float64

	shapes []Shape
	nextID int
	undo   []snapshot
}

// snapshot is a full-state memento. Shape counts on a floorplan are small
// (tens to hundreds), so snapshot undo is simpler and safer than command
// inversion.
type snapshot struct {
	shapes []Shape
	nextID int
}

// NewCanvas creates an empty canvas for the floor.
func NewCanvas(floor dsm.FloorID) *Canvas {
	return &Canvas{Floor: floor, SnapRadius: 0.3}
}

func (c *Canvas) save() {
	c.undo = append(c.undo, snapshot{append([]Shape(nil), c.shapes...), c.nextID})
}

// Undo reverts the last mutating operation; it reports whether anything was
// undone.
func (c *Canvas) Undo() bool {
	if len(c.undo) == 0 {
		return false
	}
	last := c.undo[len(c.undo)-1]
	c.undo = c.undo[:len(c.undo)-1]
	c.shapes, c.nextID = last.shapes, last.nextID
	return true
}

// snap applies the auto-adjust hint to a point.
func (c *Canvas) snap(p geom.Point) geom.Point {
	if c.SnapRadius <= 0 {
		return p
	}
	best := p
	bestD := c.SnapRadius
	consider := func(q geom.Point) {
		if d := p.Dist(q); d < bestD {
			best, bestD = q, d
		}
	}
	for _, s := range c.shapes {
		for _, v := range s.Polygon.Vertices {
			consider(v)
		}
	}
	return best
}

// DrawPolygon adds a polygon entity, snapping each vertex. It returns the
// shape ID.
func (c *Canvas) DrawPolygon(kind dsm.EntityKind, name string, pts ...geom.Point) (int, error) {
	snapped := make([]geom.Point, len(pts))
	for i, p := range pts {
		snapped[i] = c.snap(p)
	}
	pg := geom.Polygon{Vertices: snapped}
	if err := pg.Validate(); err != nil {
		return 0, fmt.Errorf("floorplan: draw polygon: %w", err)
	}
	c.save()
	id := c.allocID()
	c.shapes = append(c.shapes, Shape{
		ID: id, Kind: ShapePolygon, EntityKind: kind, Name: name, Polygon: pg,
	})
	return id, nil
}

// DrawRect is the rectangle convenience over DrawPolygon.
func (c *Canvas) DrawRect(kind dsm.EntityKind, name string, a, b geom.Point) (int, error) {
	r := geom.NewRect(a, b)
	return c.DrawPolygon(kind, name, r.Vertices()...)
}

// DrawCircle adds a circular entity (pillar, kiosk).
func (c *Canvas) DrawCircle(kind dsm.EntityKind, name string, center geom.Point, radius float64) (int, error) {
	if radius <= 0 {
		return 0, fmt.Errorf("floorplan: non-positive radius")
	}
	c.save()
	id := c.allocID()
	c.shapes = append(c.shapes, Shape{
		ID: id, Kind: ShapeCircle, EntityKind: kind, Name: name,
		Center: c.snap(center), Radius: radius,
	})
	return id, nil
}

func (c *Canvas) allocID() int {
	c.nextID++
	return c.nextID
}

// shapeIndex locates a shape by ID.
func (c *Canvas) shapeIndex(id int) int {
	for i := range c.shapes {
		if c.shapes[i].ID == id {
			return i
		}
	}
	return -1
}

// Shapes returns a copy of all shapes in draw order.
func (c *Canvas) Shapes() []Shape { return append([]Shape(nil), c.shapes...) }

// SetStyle attaches a display style key/value.
func (c *Canvas) SetStyle(id int, key, value string) error {
	return c.update(id, func(s *Shape) {
		if s.Style == nil {
			s.Style = make(map[string]string)
		}
		s.Style[key] = value
	})
}

// AssignTag attaches a semantic tag and category to a drawn shape — step (3)
// of the paper's flow, creating a semantic region at compile time.
func (c *Canvas) AssignTag(id int, tag, category string) error {
	if tag == "" {
		return fmt.Errorf("floorplan: empty semantic tag")
	}
	return c.update(id, func(s *Shape) { s.SemanticTag = tag; s.Category = category })
}

func (c *Canvas) update(id int, f func(*Shape)) error {
	i := c.shapeIndex(id)
	if i < 0 {
		return fmt.Errorf("floorplan: no shape %d", id)
	}
	c.save()
	f(&c.shapes[i])
	return nil
}
