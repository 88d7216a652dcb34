// Package config implements the declarative side of the TRIPS Configurator:
// "a standard but concise means to configure multiple input sources,
// including the indoor positioning data, indoor space information and
// relevant contexts."
//
// A Config is one JSON document naming the dataset, the DSM, the event
// training data, the selection rules, and the translator parameters. It is
// the artifact an analyst saves and reuses across translation tasks.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/selector"
)

// Config is the root document.
type Config struct {
	// Name labels the translation task.
	Name string `json:"name"`

	// Dataset is the positioning data source: a .csv or .jsonl path.
	Dataset string `json:"dataset,omitempty"`
	// DSM is the digital space model path (JSON produced by the Space
	// Modeler).
	DSM string `json:"dsm,omitempty"`
	// Events is the Event Editor state path (patterns + training data).
	Events string `json:"events,omitempty"`

	// Selector is the declarative selection rule applied to the dataset.
	Selector *RuleConfig `json:"selector,omitempty"`

	// Cleaner parameters.
	Cleaner CleanerConfig `json:"cleaner"`
	// Annotator parameters.
	Annotator AnnotatorConfig `json:"annotator"`
	// Complementor parameters.
	Complementor ComplementorConfig `json:"complementor"`
}

// CleanerConfig mirrors cleaning.Cleaner knobs.
type CleanerConfig struct {
	MaxSpeedMPS  float64 `json:"maxSpeedMps,omitempty"`
	UseEuclidean bool    `json:"useEuclidean,omitempty"`
}

// AnnotatorConfig mirrors annotation.Config knobs.
type AnnotatorConfig struct {
	// Classifier is gaussian-nb (default), logistic-regression or
	// decision-tree.
	Classifier    string  `json:"classifier,omitempty"`
	EpsSpaceM     float64 `json:"epsSpaceM,omitempty"`
	EpsTimeS      int     `json:"epsTimeS,omitempty"`
	MinPts        int     `json:"minPts,omitempty"`
	MaxGapS       int     `json:"maxGapS,omitempty"`
	MinSnippet    int     `json:"minSnippet,omitempty"`
	Display       string  `json:"display,omitempty"` // temporal-middle | spatial-central
	MinConfidence float64 `json:"minConfidence,omitempty"`
	// MergeGapS consolidates same-event same-region triplets separated by
	// at most this many seconds; 0 keeps the default (60), -1 disables.
	MergeGapS int `json:"mergeGapS,omitempty"`
}

// ComplementorConfig mirrors complement.Complementor knobs.
type ComplementorConfig struct {
	MaxGapS      int  `json:"maxGapS,omitempty"`
	MaxHops      int  `json:"maxHops,omitempty"`
	UniformPrior bool `json:"uniformPrior,omitempty"`
	Disabled     bool `json:"disabled,omitempty"`
}

// RuleConfig is the declarative form of a selector rule tree.
type RuleConfig struct {
	Kind string `json:"kind"`

	// Leaf parameters (the relevant subset per kind).
	Glob      string    `json:"glob,omitempty"`
	From      time.Time `json:"from,omitempty"`
	To        time.Time `json:"to,omitempty"`
	StartHour int       `json:"startHour,omitempty"`
	EndHour   int       `json:"endHour,omitempty"`
	MinX      float64   `json:"minX,omitempty"`
	MinY      float64   `json:"minY,omitempty"`
	MaxX      float64   `json:"maxX,omitempty"`
	MaxY      float64   `json:"maxY,omitempty"`
	Floor     int       `json:"floor,omitempty"`
	AnyFloor  bool      `json:"anyFloor,omitempty"`
	MinCount  int       `json:"minCount,omitempty"`
	Seconds   int       `json:"seconds,omitempty"`
	Days      int       `json:"days,omitempty"`

	// Children of and / or / not.
	Children []RuleConfig `json:"children,omitempty"`
}

// Build compiles the declarative rule into an executable selector.Rule.
func (rc *RuleConfig) Build() (selector.Rule, error) {
	if rc == nil {
		return selector.All{}, nil
	}
	switch rc.Kind {
	case "", "all":
		return selector.All{}, nil
	case "device":
		return selector.DevicePattern{Glob: rc.Glob}, nil
	case "timeRange":
		return selector.TimeRange{From: rc.From, To: rc.To}, nil
	case "dailyWindow":
		if rc.StartHour < 0 || rc.EndHour > 24 || rc.StartHour >= rc.EndHour {
			return nil, fmt.Errorf("config: bad daily window [%d, %d)", rc.StartHour, rc.EndHour)
		}
		return selector.DailyWindow{StartHour: rc.StartHour, EndHour: rc.EndHour}, nil
	case "spatial":
		return selector.SpatialRange{
			Rect:       geom.NewRect(geom.Pt(rc.MinX, rc.MinY), geom.Pt(rc.MaxX, rc.MaxY)),
			Floor:      dsm.FloorID(rc.Floor),
			AnyFloor:   rc.AnyFloor,
			MinRecords: rc.MinCount,
		}, nil
	case "minDuration":
		return selector.MinDuration{D: time.Duration(rc.Seconds) * time.Second}, nil
	case "frequency":
		return selector.Frequency{MaxPeriod: time.Duration(rc.Seconds) * time.Second}, nil
	case "minRecords":
		return selector.MinRecords{N: rc.MinCount}, nil
	case "periodic":
		return selector.Periodic{MinDays: rc.Days}, nil
	case "and", "or":
		if len(rc.Children) == 0 {
			return nil, fmt.Errorf("config: %s rule without children", rc.Kind)
		}
		rules := make([]selector.Rule, 0, len(rc.Children))
		for i := range rc.Children {
			r, err := rc.Children[i].Build()
			if err != nil {
				return nil, err
			}
			rules = append(rules, r)
		}
		if rc.Kind == "and" {
			return selector.And(rules), nil
		}
		return selector.Or(rules), nil
	case "not":
		if len(rc.Children) != 1 {
			return nil, fmt.Errorf("config: not rule needs exactly one child")
		}
		r, err := rc.Children[0].Build()
		if err != nil {
			return nil, err
		}
		return selector.Not{Rule: r}, nil
	default:
		return nil, fmt.Errorf("config: unknown rule kind %q", rc.Kind)
	}
}

// Validate checks the config for structural problems without touching the
// filesystem.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("config: empty task name")
	}
	if c.Annotator.Classifier != "" {
		switch c.Annotator.Classifier {
		case "gaussian-nb", "logistic-regression", "decision-tree":
		default:
			return fmt.Errorf("config: unknown classifier %q", c.Annotator.Classifier)
		}
	}
	switch c.Annotator.Display {
	case "", "temporal-middle", "spatial-central":
	default:
		return fmt.Errorf("config: unknown display policy %q", c.Annotator.Display)
	}
	if _, err := c.Selector.Build(); err != nil {
		return err
	}
	return nil
}

// Read parses and validates a config.
func Read(r io.Reader) (*Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Load reads a config file.
func Load(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
