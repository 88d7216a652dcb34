// Package testvenue builds small, fully-connected indoor venues for tests
// across the TRIPS packages. It is a test-support package: production code
// must not import it.
package testvenue

import (
	"fmt"

	"trips/internal/dsm"
	"trips/internal/geom"
)

// TwoFloor returns a frozen two-floor venue:
//
//	floor 1: hallway H1 (0,0)-(40,10); rooms R101/R102/R103 at (0|10|20,
//	10.4)-(+10, 20) with doors D101/D102/D103 in the dividing wall;
//	staircase S1F at (35,0)-(40,5).
//	floor 2: hallway H2, room R201 with door D201, staircase S2F.
//
// Regions: Adidas→R101, Nike→R102, Cashier→R103, Center Hall→H1, Books→R201.
func TwoFloor() (*dsm.Model, error) {
	m := dsm.New("test-venue")
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.NewRect(geom.Pt(x0, y0), geom.Pt(x1, y1)).ToPolygon()
	}
	add := func(id string, k dsm.EntityKind, f dsm.FloorID, shape geom.Polygon, name string) {
		m.AddEntity(&dsm.Entity{ID: dsm.EntityID(id), Kind: k, Name: name, Floor: f, Shape: shape})
	}
	add("H1", dsm.KindHallway, 1, rect(0, 0, 40, 10), "Hall 1F")
	add("R101", dsm.KindRoom, 1, rect(0, 10.4, 10, 20), "Shop 101")
	add("R102", dsm.KindRoom, 1, rect(10, 10.4, 20, 20), "Shop 102")
	add("R103", dsm.KindRoom, 1, rect(20, 10.4, 30, 20), "Shop 103")
	add("W1", dsm.KindWall, 1, rect(0, 10, 40, 10.4), "dividing wall")
	add("D101", dsm.KindDoor, 1, rect(4, 10, 6, 10.4), "door 101")
	add("D102", dsm.KindDoor, 1, rect(14, 10, 16, 10.4), "door 102")
	add("D103", dsm.KindDoor, 1, rect(24, 10, 26, 10.4), "door 103")
	add("S1F", dsm.KindStaircase, 1, rect(35, 0, 40, 5), "Stairs A")
	add("H2", dsm.KindHallway, 2, rect(0, 0, 40, 10), "Hall 2F")
	add("R201", dsm.KindRoom, 2, rect(0, 10.4, 10, 20), "Shop 201")
	add("D201", dsm.KindDoor, 2, rect(4, 10, 6, 10.4), "door 201")
	add("S2F", dsm.KindStaircase, 2, rect(35, 0, 40, 5), "Stairs A")

	reg := func(id, tag, cat string, f dsm.FloorID, shape geom.Polygon, ents ...dsm.EntityID) {
		m.AddRegion(&dsm.SemanticRegion{ID: dsm.RegionID(id), Tag: tag, Category: cat,
			Floor: f, Shape: shape, Entities: ents})
	}
	reg("rg-adidas", "Adidas", "shop", 1, rect(0, 10.4, 10, 20), "R101")
	reg("rg-nike", "Nike", "shop", 1, rect(10, 10.4, 20, 20), "R102")
	reg("rg-cashier", "Cashier", "service", 1, rect(20, 10.4, 30, 20), "R103")
	reg("rg-hall", "Center Hall", "hall", 1, rect(0, 0, 40, 10), "H1")
	reg("rg-books", "Books", "shop", 2, rect(0, 10.4, 10, 20), "R201")

	if err := m.Freeze(); err != nil {
		return nil, fmt.Errorf("testvenue: %w", err)
	}
	return m, nil
}

// MustTwoFloor panics on error; for test setup.
//
//trips:api test support: package tests build their venue with it
func MustTwoFloor() *dsm.Model {
	m, err := TwoFloor()
	if err != nil {
		panic(err)
	}
	return m
}
