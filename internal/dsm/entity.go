// Package dsm implements the Digital Space Model of TRIPS.
//
// The DSM is the semi-structured model the Space Modeler produces and every
// other component consumes (paper Sec. 3, "Creating DSM from Floorplan
// Image"). It records
//
//   - the geometric attributes and topological relations of indoor entities
//     (rooms, hallways, doors, walls, staircases, elevators, obstacles),
//   - the user-defined semantic regions and their connectivity, and
//   - the mapping between indoor entities and semantic regions.
//
// On top of the model the package offers the spatial computations the Raw
// Data Cleaner needs — point location, snapping to walkable space, and the
// minimum indoor walking distance over the door-connectivity graph (the
// speed-constraint reference of Yang et al., paper ref. [13]) — as well as
// the semantic-region lookups the Annotator and Complementor need.
//
// The whole model serializes to JSON ("stored in the DSM in JSON format,
// which is flexible to parse and manipulate").
package dsm

import (
	"fmt"

	"trips/internal/geom"
)

// EntityID identifies an indoor entity uniquely within a DSM.
type EntityID string

// RegionID identifies a semantic region uniquely within a DSM.
type RegionID string

// FloorID is a floor number. Ground floor is 1; basements are negative.
type FloorID int

// String formats the floor the way raw records print it, e.g. "3F".
func (f FloorID) String() string {
	if f < 0 {
		return fmt.Sprintf("B%d", -f)
	}
	return fmt.Sprintf("%dF", f)
}

// EntityKind classifies indoor entities. The kinds mirror the distinct
// entities the paper names: doors, walls, rooms, staircases.
type EntityKind string

// Entity kinds.
const (
	KindRoom      EntityKind = "room"      // enclosed walkable partition
	KindHallway   EntityKind = "hallway"   // open walkable partition
	KindDoor      EntityKind = "door"      // connects two partitions
	KindWall      EntityKind = "wall"      // impassable divider
	KindStaircase EntityKind = "staircase" // vertical connector
	KindElevator  EntityKind = "elevator"  // vertical connector
	KindObstacle  EntityKind = "obstacle"  // impassable island (pillar, kiosk)
)

// Walkable reports whether an entity of this kind can contain a person.
func (k EntityKind) Walkable() bool {
	switch k {
	case KindRoom, KindHallway, KindStaircase, KindElevator:
		return true
	}
	return false
}

// Vertical reports whether the kind connects floors.
func (k EntityKind) Vertical() bool {
	return k == KindStaircase || k == KindElevator
}

// Entity is one indoor entity on one floor. All entities carry polygon
// geometry; the Space Modeler converts drawn circles (pillars) to
// polygonized shapes on save so that the model has a single geometry
// representation.
type Entity struct {
	ID    EntityID     `json:"id"`
	Kind  EntityKind   `json:"kind"`
	Name  string       `json:"name,omitempty"`
	Floor FloorID      `json:"floor"`
	Shape geom.Polygon `json:"shape"`

	// Connects lists, for doors, the walkable partitions the door joins.
	// When empty the DSM derives the adjacency geometrically.
	Connects []EntityID `json:"connects,omitempty"`

	// VerticalGroup names the shaft a staircase or elevator belongs to;
	// entities with the same group on adjacent floors are connected
	// vertically. Empty defaults to the entity Name.
	VerticalGroup string `json:"verticalGroup,omitempty"`

	// Tags holds free-form attributes attached by the Space Modeler
	// (style, drawn layer, source of digitization, ...).
	Tags map[string]string `json:"tags,omitempty"`

	// idx is the dense entity index Freeze assigns (position in
	// Model.Entities); the navigation graph keys per-partition state by it
	// so the Dijkstra hot path never hashes an EntityID string.
	idx int32
}

// Center returns the representative point of the entity (shape centroid).
func (e *Entity) Center() geom.Point { return e.Shape.Centroid() }

// verticalGroup resolves the effective shaft name.
func (e *Entity) verticalGroup() string {
	if e.VerticalGroup != "" {
		return e.VerticalGroup
	}
	return e.Name
}

// Validate checks the entity invariants.
func (e *Entity) Validate() error {
	if e.ID == "" {
		return fmt.Errorf("dsm: entity with empty ID")
	}
	switch e.Kind {
	case KindRoom, KindHallway, KindDoor, KindWall, KindStaircase, KindElevator, KindObstacle:
	default:
		return fmt.Errorf("dsm: entity %s: unknown kind %q", e.ID, e.Kind)
	}
	if err := e.Shape.Validate(); err != nil {
		return fmt.Errorf("dsm: entity %s: %w", e.ID, err)
	}
	return nil
}
