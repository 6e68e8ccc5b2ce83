package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"privascope"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/modelstore"
	"privascope/internal/report"
	"privascope/internal/risk"
)

// assessWorkload is assess_cold and assess_warm. One operation is a cycle: a
// fresh Engine takes the six model documents, in fixed order, from JSON bytes
// to rendered report text. In the warm variant the fresh Engine's CacheDir is
// a registry pre-filled in set-up, so every model is loaded, none generated.
//
// A unit of work is one LTS state assessed (the six models' states summed).
type assessWorkload struct {
	warm     bool
	docs     []modelDoc
	registry string
	checker  *reportChecker
	// engineHash is the report hash Engine.Assess produced per class; the
	// staged path of a traced run must reproduce it byte for byte.
	engineHash map[string]string
	verdictMs  map[string][]float64
	counters   engineCounters
}

// engineCounters are the last cycle's Engine counters.
type engineCounters struct {
	generations, loads, incrementalHits, cacheHits, cacheMisses int64
}

func (w *assessWorkload) setup(e *env) error {
	docs, err := buildDocs(e.seed, e.sizes)
	if err != nil {
		return err
	}
	w.docs = docs
	if w.checker, err = newReportChecker(e.seed, e.sizes.golden); err != nil {
		return err
	}
	w.engineHash = make(map[string]string)
	w.verdictMs = make(map[string][]float64)
	if !w.warm {
		return nil
	}
	// Fill the registry the way a deployment does: an Engine with CacheDir
	// generates each model once and writes it back.
	w.registry = filepath.Join(e.outDir(), fmt.Sprintf("registry-%d", os.Getpid()))
	eng, err := privascope.NewEngine(privascope.EngineOptions{CacheDir: w.registry})
	if err != nil {
		return err
	}
	for _, d := range w.docs {
		m, err := dataflow.Unmarshal(d.json)
		if err != nil {
			return err
		}
		if _, err := eng.Model(context.Background(), m); err != nil {
			return err
		}
	}
	return nil
}

func (w *assessWorkload) close() {
	if w.registry != "" {
		os.RemoveAll(w.registry)
		w.registry = ""
	}
}

func (w *assessWorkload) run(e *env, out *outcome) error {
	ctx := context.Background()
	start := time.Now()
	statesPerCycle := 0.0
	for cycle := int64(0); cycle < 2 || time.Since(start) < e.window(); cycle++ {
		tr := e.tracerAt(time.Since(start))
		steal := startSteal()
		var (
			d      time.Duration
			states int
			err    error
		)
		if tr == nil {
			d, states, err = w.engineCycle(ctx, out)
		} else {
			d, states, err = w.stagedCycle(ctx, tr, cycle, out)
		}
		if err != nil {
			return err
		}
		out.recordOp(tr, d, float64(states), steal)
		statesPerCycle = float64(states)
	}
	out.measurementDone()
	if e.updateGolden {
		if err := w.checker.writeGolden(e.benchDir); err != nil {
			return err
		}
	}
	if e.trace == nil {
		return nil
	}
	w.layerMetrics(e.trace, out, statesPerCycle)
	if w.warm {
		return w.storeMetrics(ctx, out)
	}
	return w.modeMetrics(ctx, out)
}

// engineCycle is the measured operation: Engine.Assess on each document.
// Hashing and checking a report happens outside the timed segments.
func (w *assessWorkload) engineCycle(ctx context.Context, out *outcome) (time.Duration, int, error) {
	t0 := time.Now()
	eng, err := privascope.NewEngine(privascope.EngineOptions{CacheDir: w.registry})
	if err != nil {
		return 0, 0, err
	}
	total := time.Since(t0)
	states := 0
	for i := range w.docs {
		d := &w.docs[i]
		t0 := time.Now()
		m, err := dataflow.Unmarshal(d.json)
		if err != nil {
			return 0, 0, err
		}
		res, err := eng.Assess(ctx, m, d.profile)
		if err != nil {
			return 0, 0, err
		}
		text := res.Report.Render()
		dt := time.Since(t0)
		total += dt
		w.verdictMs[d.class] = append(w.verdictMs[d.class], float64(dt)/1e6)
		w.engineHash[d.class] = hashText(text)
		w.checker.check(out, d.class, text)
		if d.class == "surgery" {
			w.checkSurgery(out, res.PrivacyModel, res.Assessment)
		}
		states += res.PrivacyModel.Stats().States
	}
	hits, misses := eng.ModelCacheStats()
	w.counters = engineCounters{eng.Generations(), eng.Loads(), eng.IncrementalHits(), hits, misses}
	wantGen, wantLoads := int64(len(w.docs)), int64(0)
	if w.warm {
		wantGen, wantLoads = wantLoads, wantGen
	}
	out.check(eng.Generations() == wantGen && eng.Loads() == wantLoads, 1,
		"engine ran %d generations and %d loads, want %d and %d", eng.Generations(), eng.Loads(), wantGen, wantLoads)
	return total, states, nil
}

// checkSurgery holds the case study to the paper's numbers.
func (w *assessWorkload) checkSurgery(out *outcome, p *core.PrivacyLTS, a *risk.Assessment) {
	want := w.checker.golden.Surgery
	stats := p.Stats()
	got := surgeryNumbers{stats.States, stats.Transitions, stats.PotentialTransitions,
		a.MaxRiskFor("administrator").String()}
	out.check(got == want, 1, "surgery model is %+v, the paper has %+v", got, want)
}

// stagedCycle is the traced operation: the calls Engine.Assess is made of,
// one span each, with the report required to equal the Engine's.
func (w *assessWorkload) stagedCycle(ctx context.Context, tr *tracer, op int64, out *outcome) (time.Duration, int, error) {
	cycle := tr.begin("cycle", -1, op)
	t0 := time.Now()
	analyzer, err := risk.NewAnalyzer(risk.Config{})
	if err != nil {
		return 0, 0, err
	}
	cache, err := risk.NewAssessmentCache(analyzer)
	if err != nil {
		return 0, 0, err
	}
	var store *modelstore.Store
	if w.warm {
		if store, err = modelstore.Open(w.registry); err != nil {
			return 0, 0, err
		}
	}
	total := time.Since(t0)
	states := 0
	for i := range w.docs {
		d := &w.docs[i]
		verdict := tr.begin("verdict."+d.class, cycle, op)
		stage := func(name string) func() {
			id := tr.begin(name, verdict, op)
			return func() { tr.end(id) }
		}
		t0 := time.Now()
		done := stage("dataflow.unmarshal")
		m, err := dataflow.Unmarshal(d.json)
		done()
		if err != nil {
			return 0, 0, err
		}
		done = stage("dataflow.fingerprint")
		fp, err := dataflow.Fingerprint(m)
		done()
		if err != nil {
			return 0, 0, err
		}
		var p *core.PrivacyLTS
		if w.warm {
			done = stage("modelstore.load")
			p, err = store.Load(fp, m)
		} else {
			done = stage("core.generate." + d.class)
			p, err = core.GenerateWithOptionsContext(ctx, m, core.Options{})
		}
		done()
		if err != nil {
			return 0, 0, err
		}
		done = stage("lts.compile")
		p.Graph.Compiled()
		done()
		done = stage("core.compile_view")
		p.Compiled()
		done()
		done = stage("risk.analyze." + d.class)
		a, err := cache.AnalyzeContext(ctx, p, d.profile)
		done()
		if err != nil {
			return 0, 0, err
		}
		done = stage("report.build")
		r := assessReport(m.Name, p, a)
		done()
		done = stage("report.render")
		text := r.Render()
		done()
		total += time.Since(t0)
		tr.end(verdict)
		tr.count("report.bytes", float64(len(text)))
		tr.count("risk.findings."+d.class, float64(len(a.Findings)))
		tr.count("core.transitions", float64(p.Stats().Transitions))
		hash := hashText(text)
		out.check(hash == w.engineHash[d.class], 1,
			"%s: staged report hashes %.12s, Engine.Assess produced %.12s", d.class, hash, w.engineHash[d.class])
		states += p.Stats().States
	}
	tr.end(cycle)
	return total, states, nil
}

// assessReport composes the report Engine.Assess returns (the facade keeps
// its composer unexported): the model summary's sections, then the
// disclosure assessment's.
func assessReport(modelName string, p *core.PrivacyLTS, a *risk.Assessment) *report.Report {
	combined := report.NewReport("Privacy risk assessment: " + modelName)
	for _, s := range report.ModelSummary(p).Sections() {
		combined.AddTable(s.Title, s.Body, s.Table)
	}
	for _, s := range report.DisclosureAssessment(a).Sections() {
		combined.AddTable(s.Title, s.Body, s.Table)
	}
	return combined
}

// layerMetrics turns the traced cycles' spans into per-layer metrics. Stages
// that run once per document are summed per cycle; the median is over cycles.
func (w *assessWorkload) layerMetrics(tr *tracer, out *outcome, statesPerCycle float64) {
	perCycle := func(names ...string) float64 { return median(tr.opSumsMs(names...)) }
	generate := make([]string, len(assessClasses))
	for i, class := range assessClasses {
		generate[i] = "core.generate." + class
		out.layer["engine.verdict_ms."+class] = median(w.verdictMs[class])
	}
	stages := map[string]float64{
		"dataflow.unmarshal_ms":   perCycle("dataflow.unmarshal"),
		"dataflow.fingerprint_ms": perCycle("dataflow.fingerprint"),
		"lts.compile_ms":          perCycle("lts.compile"),
		"core.compile_view_ms":    perCycle("core.compile_view"),
		"report.build_ms":         perCycle("report.build"),
		"report.render_ms":        perCycle("report.render"),
		"modelstore.load_ms":      perCycle("modelstore.load"),
	}
	attributed := 0.0
	for name, v := range stages {
		out.layer[name] = v
		attributed += v
	}
	for _, class := range []string{"xl", "large", "symmetric", "surgery"} {
		out.layer["core.generate_ms."+class] = perCycle("core.generate." + class)
	}
	generateMs := perCycle(generate...)
	analyze := make([]string, len(assessClasses))
	for i, class := range assessClasses {
		analyze[i] = "risk.analyze." + class
	}
	attributed += generateMs + perCycle(analyze...)
	if generateMs > 0 {
		out.layer["core.states_per_s"] = statesPerCycle / (generateMs / 1000)
	}
	out.layer["core.states"] = statesPerCycle
	out.layer["core.transitions"] = tr.counterSum("core.transitions") / float64(len(out.tracedOpMs))
	out.layer["risk.analyze_ms.large"] = perCycle("risk.analyze.large")
	out.layer["risk.findings"] = tr.counterMax("risk.findings.large")
	out.layer["report.bytes"] = tr.counterSum("report.bytes") / float64(len(out.tracedOpMs))
	out.layer["engine.generations"] = float64(w.counters.generations)
	out.layer["engine.loads"] = float64(w.counters.loads)
	out.layer["engine.incremental_hits"] = float64(w.counters.incrementalHits)
	if lookups := w.counters.cacheHits + w.counters.cacheMisses; lookups > 0 {
		out.layer["engine.model_cache_hit_share"] = float64(w.counters.cacheHits) / float64(lookups)
	}
	out.layer["engine.unattributed_ms"] = median(out.opMs) - attributed
}

// doc returns the parsed model of a class.
func (w *assessWorkload) doc(class string) (*dataflow.Model, error) {
	for _, d := range w.docs {
		if d.class == class {
			return dataflow.Unmarshal(d.json)
		}
	}
	return nil, fmt.Errorf("no %s document", class)
}

// timeMedianMs is the median wall time of reps calls, in milliseconds.
func timeMedianMs(reps int, f func() error) (float64, error) {
	samples := make([]float64, reps)
	for i := range samples {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(t0)) / 1e6
	}
	return median(samples), nil
}

// modeMetrics measures the generator's optional modes beside the default, on
// the documents built to suit them. This is the only place the benchmark sets
// a tuning option, and it is never part of an end-to-end number.
func (w *assessWorkload) modeMetrics(ctx context.Context, out *outcome) error {
	symmetric, err := w.doc("symmetric")
	if err != nil {
		return err
	}
	large, err := w.doc("large")
	if err != nil {
		return err
	}
	const reps = 5
	out.layer["core.generate_symmetry_ms"], err = timeMedianMs(reps, func() error {
		_, err := core.GenerateWithOptionsContext(ctx, symmetric, core.Options{Explore: core.ExploreOptions{Symmetry: true}})
		return err
	})
	if err != nil {
		return err
	}
	out.layer["core.generate_workers1_ms"], err = timeMedianMs(reps, func() error {
		_, err := core.GenerateWithOptionsContext(ctx, large, core.Options{Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	gen := core.NewGenerator(core.Options{})
	prev, trace, _, err := gen.GenerateTracedContext(ctx, large)
	if err != nil {
		return err
	}
	for class, metric := range map[string]string{
		"large_policy_edit": "core.regenerate_policy_ms",
		"large_meta_edit":   "core.regenerate_metadata_ms",
	} {
		edited, err := w.doc(class)
		if err != nil {
			return err
		}
		out.layer[metric], err = timeMedianMs(reps, func() error {
			_, _, rep, err := gen.RegenerateContext(ctx, prev, trace, edited)
			if err == nil && rep.Fallback {
				err = fmt.Errorf("%s regeneration fell back to a full generation: %s", class, rep.FallbackReason)
			}
			return err
		})
		if err != nil {
			return err
		}
		if class == "large_policy_edit" {
			out.layer["explore.diff_ms"], _ = timeMedianMs(reps, func() error { explore.Diff(large, edited); return nil })
		}
	}
	return nil
}

// storeMetrics measures the model store's stages on the six documents, each
// summed over the documents like the cycle's stages are.
func (w *assessWorkload) storeMetrics(ctx context.Context, out *outcome) error {
	scratch, err := modelstore.Open(w.registry + "-stages")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch.Dir())
	for _, d := range w.docs {
		m, err := dataflow.Unmarshal(d.json)
		if err != nil {
			return err
		}
		fp, err := dataflow.Fingerprint(m)
		if err != nil {
			return err
		}
		p, err := core.GenerateWithOptionsContext(ctx, m, core.Options{})
		if err != nil {
			return err
		}
		var data []byte
		stages := map[string]func() error{
			"modelstore.encode_ms": func() (err error) { data, err = modelstore.Encode(p); return },
			"modelstore.save_ms":   func() error { return scratch.Save(fp, p) },
			"modelstore.decode_ms": func() error { _, err := modelstore.Decode(data, m); return err },
		}
		for _, name := range []string{"modelstore.encode_ms", "modelstore.save_ms", "modelstore.decode_ms"} {
			ms, err := timeMedianMs(3, stages[name])
			if err != nil {
				return err
			}
			out.layer[name] += ms
		}
		out.layer["modelstore.artifact_bytes"] += float64(len(data))
	}
	return nil
}
