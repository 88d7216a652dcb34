// Command trips-gen generates the synthetic experimental substrate: a mall
// DSM, a raw Wi-Fi positioning dataset over it, the per-device ground
// truth, and Event Editor training data derived from the truth.
//
// It substitutes for the paper's proprietary "7-floor shopping mall in
// Hangzhou" dataset.
//
// Usage:
//
//	trips-gen -out data/ [-floors 7] [-shops 8] [-devices 50] [-seed 1]
//	          [-hours 12] [-noise 2.5] [-floor-err 0.03] [-outliers 0.05]
//	          [-dropout 0.006]
//
// Files written under -out:
//
//	mall.json        the venue DSM
//	raw.csv          the raw positioning dataset
//	truth/<dev>.json the true mobility semantics per device
//	truth.csv        the dense ground-truth traces
//	events.json      Event Editor state with training segments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"trips/internal/events"
	"trips/internal/position"
	"trips/internal/simul"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trips-gen: ")

	var (
		out      = flag.String("out", "data", "output directory")
		floors   = flag.Int("floors", 7, "mall floors")
		shops    = flag.Int("shops", 8, "shops per floor")
		devices  = flag.Int("devices", 50, "simulated devices")
		seed     = flag.Int64("seed", 1, "random seed")
		hours    = flag.Float64("hours", 12, "arrival window in hours")
		noise    = flag.Float64("noise", 2.5, "planar noise sigma in meters")
		floorErr = flag.Float64("floor-err", 0.03, "floor misread probability")
		outliers = flag.Float64("outliers", 0.05, "outlier probability")
		dropout  = flag.Float64("dropout", simul.DefaultErrorModel().DropoutProb,
			"dropout probability per record (0 = gap-free feed)")
		perEvent = flag.Int("train-per-event", 40, "training segments per event")
	)
	flag.Parse()

	if err := run(*out, *floors, *shops, *devices, *seed, *hours, *noise, *floorErr, *outliers, *dropout, *perEvent); err != nil {
		log.Fatal(err)
	}
}

func run(out string, floors, shops, devices int, seed int64, hours, noise, floorErr, outliers, dropout float64, perEvent int) error {
	if err := os.MkdirAll(filepath.Join(out, "truth"), 0o755); err != nil {
		return err
	}

	model, err := simul.BuildMall(simul.MallSpec{Floors: floors, ShopsPerFloor: shops})
	if err != nil {
		return err
	}
	if err := model.Save(filepath.Join(out, "mall.json")); err != nil {
		return err
	}
	fmt.Printf("mall: %d floors, %d entities, %d regions → %s\n",
		len(model.Floors()), len(model.Entities), len(model.Regions), filepath.Join(out, "mall.json"))

	em := simul.DefaultErrorModel()
	em.NoiseSigma = noise
	em.FloorErrProb = floorErr
	em.OutlierProb = outliers
	em.DropoutProb = dropout

	sim := simul.NewSim(model, seed)
	start := time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)
	window := time.Duration(hours * float64(time.Hour))
	raw, truths, err := sim.Population(devices, start, window, em)
	if err != nil {
		return err
	}
	if err := position.SaveFile(filepath.Join(out, "raw.csv"), raw); err != nil {
		return err
	}
	st := raw.Summarize()
	fmt.Printf("raw: %s → %s\n", st, filepath.Join(out, "raw.csv"))

	// Ground truth: dense traces and true semantics.
	truthDS := position.NewDataset()
	//trips:commutative per-device truth files are keyed by device; truth.csv is sorted by SaveFile
	for dev, truth := range truths {
		truthDS.AddSequence(truth.Records)
		if err := truth.Semantics.Save(filepath.Join(out, "truth", string(dev)+".json")); err != nil {
			return err
		}
	}
	if err := position.SaveFile(filepath.Join(out, "truth.csv"), truthDS); err != nil {
		return err
	}
	fmt.Printf("truth: %d devices → %s, %s/\n", len(truths),
		filepath.Join(out, "truth.csv"), filepath.Join(out, "truth"))

	// Event Editor state with training segments derived from the truth.
	ed := events.NewEditor()
	segs := simul.TrainingSegments(raw, truths, perEvent)
	count := 0
	for _, es := range segs {
		for _, recs := range es.Segments {
			if err := ed.AddSegment(events.LabeledSegment{Event: es.Event, Device: recs[0].Device, Records: recs}); err != nil {
				return err
			}
			count++
		}
	}
	if err := ed.Save(filepath.Join(out, "events.json")); err != nil {
		return err
	}
	fmt.Printf("events: %d training segments → %s\n", count, filepath.Join(out, "events.json"))
	return nil
}
