// Package charles is a Go implementation of Charles, the big data
// query advisor of Sellam & Kersten (CIDR 2013). Charles answers a
// query with more queries: given a context — a conjunctive SDL
// predicate over one relation — it partitions the context's extent
// into ranked segmentations generated by the HB-cuts heuristic, each
// revealing one aspect of the data, and hands every segment back as
// a query the user can explore next.
//
// The package is a facade over the internal packages: the columnar
// engine (internal/engine), the SDL language (internal/sdl), the
// segmentation primitives and metrics (internal/seg), and the
// HB-cuts algorithm with its extensions (internal/core).
//
// Quickstart:
//
//	tab := charles.GenerateVOC(50000, 1)
//	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
//	res, err := adv.AdviseString("(type_of_boat:, tonnage:, departure_harbour:)")
//	...
//	fmt.Print(charles.RenderRanked(res, 3))
package charles

import (
	"context"
	"io"

	"charles/internal/baseline"
	"charles/internal/colfile"
	"charles/internal/core"
	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
	"charles/internal/ui"
)

// Re-exported types. Aliases keep the public API one import wide
// while the implementation stays in internal packages.
type (
	// Table is one relation stored column-at-a-time. Memory-backed
	// tables are mutable through AppendRows and UpdateRows; mutation
	// is tracked per chunk, so a following advise recomputes only
	// what the delta touched (see the README's "Incremental advise").
	Table = engine.Table
	// Value is one typed cell value, built with Int, Float, Str,
	// Bool or Date; AppendRows and UpdateRows take them.
	Value = engine.Value
	// Selection is a sorted vector of global row ids; UpdateRows
	// takes one to address the rows it overwrites.
	Selection = engine.Selection
	// Query is a conjunctive SDL query (Definition 2).
	Query = sdl.Query
	// Constraint is one SDL predicate (Definition 1).
	Constraint = sdl.Constraint
	// Segmentation is a set of queries partitioning a context
	// (Definition 3).
	Segmentation = seg.Segmentation
	// Metrics bundles the Section 3 quality criteria.
	Metrics = seg.Metrics
	// Config parameterizes HB-cuts.
	Config = core.Config
	// Result is the ranked answer list for one context.
	Result = core.Result
	// Scored pairs a segmentation with its metrics and rank score.
	Scored = core.Scored
	// Stream generates segmentations lazily, one per Next call.
	Stream = core.Stream
	// Evaluator binds queries to a table with selection caching.
	Evaluator = seg.Evaluator
	// CutOptions parameterizes the CUT primitive.
	CutOptions = seg.CutOptions
	// Progress is one advise progress report (AdviseCtx).
	Progress = core.Progress
	// ProgressFunc receives progress reports during an advise; calls
	// are serialized and Done values arrive in increasing order.
	ProgressFunc = core.ProgressFunc
)

// Progress phases reported by AdviseCtx and AdaptiveCtx.
const (
	// PhaseCuts covers the initial per-attribute cuts (Total known).
	PhaseCuts = core.PhaseCuts
	// PhasePairs covers INDEP pair evaluations (open-ended).
	PhasePairs = core.PhasePairs
	// PhaseTrials covers adaptive attribute trial-cuts (open-ended).
	PhaseTrials = core.PhaseTrials
)

// DefaultChunkRows is the automatic row-range chunk width of the
// storage layer: tables, selections and bitmaps shard into 64K-row
// chunks that scan in parallel and skip via per-chunk min/max
// summaries. Table.SetChunkRows picks another width while a table is
// built.
const DefaultChunkRows = engine.DefaultChunkRows

// Value constructors for AppendRows/UpdateRows, one per column
// kind. Date takes days since the engine epoch; parse "YYYY-MM-DD"
// with engine.ParseDays semantics via ParseDate.

// Int builds an integer value.
func Int(v int64) Value { return engine.Int(v) }

// Float builds a float value.
func Float(v float64) Value { return engine.Float(v) }

// Str builds a string value.
func Str(v string) Value { return engine.String_(v) }

// Bool builds a boolean value.
func Bool(v bool) Value { return engine.Bool(v) }

// Date builds a date value from days since epoch.
func Date(days int64) Value { return engine.Date(days) }

// ParseDate builds a date value from "YYYY-MM-DD".
func ParseDate(s string) (Value, error) {
	days, err := engine.ParseDays(s)
	if err != nil {
		return Value{}, err
	}
	return engine.Date(days), nil
}

// DefaultConfig returns the paper's configuration: INDEP threshold
// 0.99, at most a dozen segments, binary median cuts, entropy
// ranking.
func DefaultConfig() Config { return core.DefaultConfig() }

// LoadCSV loads a headered CSV file into a table, inferring column
// kinds (int, date, float, bool, string).
func LoadCSV(path string) (*Table, error) {
	return engine.ReadCSVFile(path, engine.CSVOptions{})
}

// LoadCSVReader loads headered CSV from a reader under the given
// table name.
func LoadCSVReader(r io.Reader, name string) (*Table, error) {
	return engine.ReadCSV(r, engine.CSVOptions{TableName: name})
}

// WriteCSV saves a table as headered CSV.
func WriteCSV(path string, t *Table) error { return engine.WriteCSVFile(path, t) }

// ColumnFileOptions parameterizes SaveColumnFile: the chunk width to
// write pages at (0 keeps the table's width), which tables opened over
// the file default to, and an optional column to cluster rows by at
// ingest, which is what makes chunk skipping pay off on the clustered
// column at query time.
type ColumnFileOptions = colfile.WriteOptions

// SaveColumnFile persists a table in the Charles columnar format
// (.chc, specified in docs/FORMAT.md): per-chunk value pages and
// string dictionaries, ready to be reopened by mmap.
func SaveColumnFile(path string, t *Table, opts ColumnFileOptions) error {
	return colfile.Write(path, t, opts)
}

// OpenColumnFile opens a .chc columnar file as a table backed by a
// read-only memory mapping: opening costs metadata only, rows fault
// in on first touch, and zone maps and the codes they carry are built
// by scanning the columns, as for a table held in memory, reading each
// summarized column once. Close the table when done to release the
// mapping; advise output
// over a file-backed table is byte-identical to the same table held
// in memory.
func OpenColumnFile(path string) (*Table, error) { return colfile.OpenTable(path) }

// GenerateVOC returns n synthetic Dutch East India Company voyages
// with the Figure 1 schema and its planted attribute dependencies.
func GenerateVOC(n int, seed int64) *Table { return dataset.VOC(n, seed) }

// GenerateSkySurvey returns the astronomy workload of the
// demonstration proposal.
func GenerateSkySurvey(n int, seed int64) *Table { return dataset.SkySurvey(n, seed) }

// GenerateWebLog returns the web-log workload of the Section 1
// motivation.
func GenerateWebLog(n int, seed int64) *Table { return dataset.WebLog(n, seed) }

// GenerateDataset dispatches on a dataset name: voc, sky, weblog,
// gaussian, uniform or figure3.
func GenerateDataset(name string, n int, seed int64) (*Table, error) {
	return dataset.Named(name, n, seed)
}

// ParseQuery parses SDL text and binds it to the table's schema,
// coercing literals to column kinds.
func ParseQuery(input string, t *Table) (Query, error) { return sdl.ParseBound(input, t) }

// ContextAll returns the context mentioning every column,
// unconstrained: "explore the whole database".
func ContextAll(t *Table) Query { return sdl.ContextAll(t) }

// ContextOn returns an unconstrained context over the given columns.
func ContextOn(t *Table, columns ...string) (Query, error) { return sdl.ContextOn(t, columns...) }

// SQLWhere translates a query's predicates to a SQL boolean
// expression — Charles as "a front-end for SQL systems".
func SQLWhere(q Query) string { return sdl.WhereClause(q) }

// SQLSelect renders the drill-down SELECT * for a segment.
func SQLSelect(q Query, table string) string { return sdl.SelectStar(q, table) }

// RenderRanked renders a result as the text version of Figure 1's
// ranked answer list (top ≤ 0 renders everything).
func RenderRanked(res *Result, top int) string { return ui.RenderRanked(res, top) }

// RenderContext renders the context panel of Figure 1.
func RenderContext(q Query, rows int) string { return ui.RenderContext(q, rows) }

// RenderSegmentation renders one segmentation as proportion bars.
func RenderSegmentation(s *Segmentation) string { return ui.RenderSegmentation(s) }

// Advisor is a ready-to-query advisory session over one table: it
// owns the evaluator (and therefore the selection caches) and the
// HB-cuts configuration. An Advisor is safe for concurrent use —
// the evaluator's caches are sharded behind fine-grained locks and
// every advise fans out over Config.Workers goroutines — so one
// Advisor can back many simultaneous user sessions over the same
// table. (A Stream, in contrast, is a single-consumer cursor.)
type Advisor struct {
	tab *Table
	ev  *seg.Evaluator
	cfg Config
}

// NewAdvisor builds an advisory session over t. The table's chunk
// width is physical design fixed while it is built (Table.SetChunkRows),
// never by an advisor.
func NewAdvisor(t *Table, cfg Config) *Advisor {
	return &Advisor{tab: t, ev: seg.NewEvaluator(t), cfg: cfg}
}

// Table returns the relation under advice.
func (a *Advisor) Table() *Table { return a.tab }

// Config returns the session configuration.
func (a *Advisor) Config() Config { return a.cfg }

// Evaluator exposes the session's caching evaluator for advanced
// callers (custom primitives, instrumentation).
func (a *Advisor) Evaluator() *Evaluator { return a.ev }

// Advise runs HB-cuts on a context query and returns the ranked
// segmentations.
func (a *Advisor) Advise(context Query) (*Result, error) {
	return core.HBCuts(nil, a.ev, context, a.cfg, nil)
}

// AdviseCtx is Advise with cooperative cancellation and progress
// reporting — the long-running form the async job layer runs. A
// cancelled ctx stops the advise at the next task boundary (between
// initial cuts, INDEP cells, composition steps), releases all worker
// goroutines, and returns ctx.Err(). progress, when non-nil,
// receives serialized monotone reports (PhaseCuts then PhasePairs).
// Neither changes ranked output: an uncancelled AdviseCtx returns
// byte-identical results to Advise at every Workers setting.
func (a *Advisor) AdviseCtx(ctx context.Context, context_ Query, progress ProgressFunc) (*Result, error) {
	return core.HBCuts(ctx, a.ev, context_, a.cfg, progress)
}

// AdviseString parses, binds and advises in one step. An empty input
// advises over all columns.
func (a *Advisor) AdviseString(context string) (*Result, error) {
	q, err := a.ParseContext(context)
	if err != nil {
		return nil, err
	}
	return a.Advise(q)
}

// ParseContext parses and binds a context string; empty input means
// every column, unconstrained.
func (a *Advisor) ParseContext(context string) (Query, error) {
	if context == "" {
		return ContextAll(a.tab), nil
	}
	return ParseQuery(context, a.tab)
}

// Stream starts lazy generation for a context (Section 5.2: "create
// more upon request").
func (a *Advisor) Stream(context Query) (*Stream, error) {
	return core.NewStream(a.ev, context, a.cfg)
}

// Adaptive runs the per-piece adaptive-cuts extension, where each
// piece may split on a different attribute.
func (a *Advisor) Adaptive(context Query) ([]Scored, error) {
	return core.AdaptiveCuts(nil, a.ev, context, a.cfg, nil)
}

// AdaptiveCtx is Adaptive with cooperative cancellation and
// PhaseTrials progress reporting, mirroring AdviseCtx.
func (a *Advisor) AdaptiveCtx(ctx context.Context, context_ Query, progress ProgressFunc) ([]Scored, error) {
	return core.AdaptiveCuts(ctx, a.ev, context_, a.cfg, progress)
}

// Facets produces the single-attribute faceted-search baseline for
// comparison with Charles' multi-attribute segmentations.
func (a *Advisor) Facets(context Query, maxGroups int) ([]*Segmentation, error) {
	return baseline.Facets(a.ev, context, maxGroups)
}

// Count returns |R(q)| on the session's table.
func (a *Advisor) Count(q Query) (int, error) { return a.ev.Count(q) }

// DescribeSegment renders the Section 5.2 segment detail view: the
// per-attribute value distributions inside one query's extent
// (sparkline histograms for numeric columns, top-value shares for
// nominal ones).
func (a *Advisor) DescribeSegment(q Query, attrs []string) (string, error) {
	return ui.RenderSegmentDetail(a.ev, q, attrs)
}

// Zoom turns a selected segment into the next exploration context:
// the segment's query becomes the new context, preserving the
// interactive loop of Figure 1 ("the user can then select one SDL
// query, and submit it for further exploration").
func (a *Advisor) Zoom(res *Result, answer, segment int) (Query, error) {
	if answer < 0 || answer >= len(res.Segmentations) {
		return Query{}, errOutOfRange("answer", answer, len(res.Segmentations))
	}
	s := res.Segmentations[answer].Seg
	if segment < 0 || segment >= len(s.Queries) {
		return Query{}, errOutOfRange("segment", segment, len(s.Queries))
	}
	return s.Queries[segment], nil
}
