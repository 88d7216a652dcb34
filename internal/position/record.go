// Package position is the raw indoor positioning data substrate of TRIPS.
//
// It models the left-hand side of the paper's Table 1: raw positioning
// records of the form (object, (x, y, floor), timestamp), grouped into
// per-device sequences and datasets, with readers and writers for the
// multi-source inputs the Data Selector accepts (CSV files, JSON lines,
// and the streaming parsers a live feed is read with).
package position

import (
	"fmt"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
)

// DeviceID identifies a positioned object (an anonymized device MAC in the
// paper's dataset).
type DeviceID string

// Record is one raw positioning record: a device seen at a geometric point
// on a floor at a timestamp. Records are value types; sequences copy them
// freely.
type Record struct {
	Device DeviceID    `json:"device"`
	P      geom.Point  `json:"p"`
	Floor  dsm.FloorID `json:"floor"`
	At     time.Time   `json:"at"`
}

// Location returns the record's location as a DSM location.
func (r Record) Location() dsm.Location { return dsm.Location{P: r.P, Floor: r.Floor} }

// String formats the record the way the paper prints it:
// "oi, (5.1, 12.7, 3F), 1:02:05pm".
func (r Record) String() string {
	return fmt.Sprintf("%s, (%.1f, %.1f, %s), %s",
		r.Device, r.P.X, r.P.Y, r.Floor, r.At.Format("3:04:05pm"))
}
