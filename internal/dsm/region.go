package dsm

import (
	"fmt"

	"trips/internal/geom"
	"trips/internal/intern"
)

// SemanticRegion is a user-defined region associated with practical
// semantics — a shop, a cashier desk, a gate, a meeting room. Regions are
// what spatial annotations in mobility semantics refer to ("stay, Adidas").
type SemanticRegion struct {
	ID RegionID `json:"id"`
	// Tag is the semantic label shown in mobility semantics, e.g. "Nike".
	Tag string `json:"tag"`
	// Category groups tags, e.g. "shop", "cashier", "hall", "gate".
	Category string       `json:"category,omitempty"`
	Floor    FloorID      `json:"floor"`
	Shape    geom.Polygon `json:"shape"`

	// Entities maps the region onto the indoor entities it covers. The
	// Space Modeler fills this when the analyst assigns a semantic tag to
	// drawn entities; the DSM can also derive it geometrically.
	Entities []EntityID `json:"entities,omitempty"`

	// Style carries the display style the Space Modeler attached
	// ("Users can customize and apply different styles").
	Style map[string]string `json:"style,omitempty"`

	// idx is the interned dense region index Freeze assigns in sorted
	// RegionID order; see Model.RegionIdxAt.
	idx intern.ID
}

// Center returns the representative point of the region.
func (r *SemanticRegion) Center() geom.Point { return r.Shape.Centroid() }

// Validate checks the region invariants.
func (r *SemanticRegion) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("dsm: region with empty ID")
	}
	if r.Tag == "" {
		return fmt.Errorf("dsm: region %s: empty tag", r.ID)
	}
	if err := r.Shape.Validate(); err != nil {
		return fmt.Errorf("dsm: region %s: %w", r.ID, err)
	}
	return nil
}
