package core

import "trips/internal/online"

// NewOnline starts a streaming translation engine over this translator's
// trained components: the same cleaner, annotator, and complementor
// configuration runs incrementally per device instead of over a
// materialized dataset. The returned engine is live; feed it with Ingest
// or TryIngest and Close it to seal every open session.
func (t *Translator) NewOnline(cfg online.Config) (*online.Engine, error) {
	return online.NewEngine(online.Pipeline{
		Model:            t.Model,
		Cleaner:          t.Cleaner,
		Annotator:        t.Annotator,
		Complementor:     t.Complementor,
		KnowledgeJoinGap: t.KnowledgeJoinGap,
	}, cfg)
}
