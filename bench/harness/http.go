package harness

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"charles"
)

// served is one op's result as the server rendered it.
type served struct {
	sdl    string
	result *JSONResult
}

// clientLog is what one closed-loop client observed; clients write
// their own log and the runner merges them after the last one ends.
type clientLog struct {
	adviseMS, hitMS, submitMS, pollMS, donePollMS []float64
	served                                        []served
	indepEvals, iterations                        int
	errs                                          []string
}

// advise runs one submit-and-wait op and books what came back.
func (l *clientLog) advise(c *Client, op int, sdl string) {
	rep, err := c.Advise(op, sdl)
	if err != nil {
		l.errs = append(l.errs, err.Error())
		return
	}
	l.book(rep, sdl)
}

// book classifies one successful reply: one that needed no advise for
// this request is a hit, anything else that returned a result ran one.
// The populations never mix: advise_* metrics are over ops that ran.
func (l *clientLog) book(rep *AdviseReply, sdl string) {
	ms := float64(rep.Latency.Nanoseconds()) / 1e6
	if rep.Hit {
		l.hitMS = append(l.hitMS, ms)
	} else {
		l.adviseMS = append(l.adviseMS, ms)
		l.submitMS = append(l.submitMS, rep.SubmitMS)
		l.pollMS = append(l.pollMS, rep.PollMS...)
		l.donePollMS = append(l.donePollMS, rep.PollMS[len(rep.PollMS)-1])
		l.indepEvals += rep.Job.Result.IndepEvals
		l.iterations += rep.Job.Result.Iterations
	}
	l.served = append(l.served, served{sdl, rep.Job.Result})
}

// merge folds a client's log into the outcome.
func (o *Outcome) merge(l *clientLog, ops int) {
	o.Attempted += ops
	o.AdviseOps += len(l.served)
	o.AdviseMS = append(o.AdviseMS, l.adviseMS...)
	o.HitMS = append(o.HitMS, l.hitMS...)
	o.SubmitMS = append(o.SubmitMS, l.submitMS...)
	o.PollMS = append(o.PollMS, l.pollMS...)
	o.DonePollMS = append(o.DonePollMS, l.donePollMS...)
	o.IndepEvals += l.indepEvals
	o.Iterations += l.iterations
	for _, e := range l.errs {
		o.fail("%s", e)
	}
}

// scrapeDelta subtracts two /metrics scrapes.
func scrapeDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// serveHot: charles-server over a date-clustered .chc, two closed-loop
// clients, 70% result-LRU hits.
type serveHot struct {
	opt    Options
	srv    *Server
	served []served
}

func (w *serveHot) setup() error {
	var err error
	log := filepath.Join(w.opt.OutDir, "server-"+ServeHot+".log")
	if w.srv, err = StartServer(w.opt.ServerBin, log, "-table", w.opt.chcPath); err != nil {
		return err
	}
	// Warm-up fills the result LRU with the hot set.
	c := w.srv.NewClient(nil)
	for _, sdl := range HotContexts {
		if _, err := c.Advise(-1, sdl); err != nil {
			return fmt.Errorf("warm-up: %w\nserver log tail:\n%s", err, w.srv.LogTail())
		}
	}
	return nil
}

func (w *serveHot) run(out *Outcome) {
	plan := ServePlan(w.opt.Seed, w.opt.Sizes.Clients, w.opt.Sizes.ClientOps)
	logs := make([]clientLog, len(plan))
	before, _ := w.srv.Scrape() // counters are diagnostics; a failed scrape only blanks them
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range plan {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := w.srv.NewClient(w.opt.Tracer)
			for i, op := range plan[ci] {
				logs[ci].advise(c, ci*len(plan[ci])+i, op.SDL)
			}
		}(ci)
	}
	wg.Wait()
	out.AdviseBusy = time.Since(start)
	after, _ := w.srv.Scrape()
	out.ServerCounters = scrapeDelta(before, after)
	for ci := range logs {
		out.merge(&logs[ci], len(plan[ci]))
		w.served = append(w.served, logs[ci].served...)
	}
	out.BootMS, out.ServerFlags = w.srv.BootMS, w.srv.Flags
}

func (w *serveHot) check(out *Outcome) {
	rendered := make([]string, len(w.served))
	first := map[string]int{}
	var order []int
	for i, s := range w.served {
		rendered[i] = string(canonical(s.result))
		checkServedSums(out, s.sdl, s.result)
		if j, seen := first[s.sdl]; !seen {
			first[s.sdl] = i
			order = append(order, i)
		} else if rendered[i] != rendered[j] {
			out.violate("%s: the server answered it differently on a repeat", s.sdl)
		}
	}
	tab, err := charles.OpenColumnFile(w.opt.chcPath)
	if err != nil {
		out.violate("open %s for the in-process comparison: %v", w.opt.chcPath, err)
		return
	}
	defer tab.Close()
	for _, k := range pickDeep(len(order), w.opt.Sizes.DeepChecks, w.opt.Seed, w.opt.Deep) {
		s := w.served[order[k]]
		checkServed(out, ServeHot, tab, s.sdl, s.result)
	}
	out.OutputDigest = digestOf(rendered)
}

func (w *serveHot) peakRSSMB() float64 { return w.srv.PeakRSSMB() }

func (w *serveHot) close() {
	if w.srv != nil {
		w.srv.Stop()
	}
}

// appendMix: one writer appending batches beside one reader
// re-advising over a mutable memory-backed table.
type appendMix struct {
	opt    Options
	srv    *Server
	plan   *AppendPlan
	bodies [][]byte
	acked  int // batches the server acknowledged, always a prefix of plan.Batches
}

func (w *appendMix) setup() error {
	sz := w.opt.Sizes
	w.plan = NewAppendPlan(w.opt.Seed, sz.AppendBatches, sz.BatchRows)
	for b := range w.plan.Batches {
		body, err := w.plan.Body(b)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
	}
	var err error
	log := filepath.Join(w.opt.OutDir, "server-"+AppendMix+".log")
	w.srv, err = StartServer(w.opt.ServerBin, log,
		"-dataset", "voc", "-rows", strconv.Itoa(sz.Rows), "-seed", strconv.Itoa(DataSeed))
	if err != nil {
		return err
	}
	c := w.srv.NewClient(nil)
	for _, sdl := range ReaderContexts {
		if _, err := c.Advise(-1, sdl); err != nil {
			return fmt.Errorf("warm-up: %w\nserver log tail:\n%s", err, w.srv.LogTail())
		}
	}
	return nil
}

// run starts the loader, lets the analyst begin once the first batch
// is acknowledged (before that every re-advise would be a result-LRU
// hit), and stops the loader when the analyst's fixed list is done:
// the advise side does identical work on both sides of an A/B, the
// loader is the back-to-back background it runs against, and its
// throughput over that window is append_rows_per_s. The batch list is
// sized to outlast the analyst; should it run dry first, the
// remaining re-advises are hits and are classified as such.
func (w *appendMix) run(out *Outcome) {
	sz := w.opt.Sizes
	var reader clientLog
	var appendErrs []string
	var readerDone atomic.Bool
	firstAck := make(chan struct{})
	before, _ := w.srv.Scrape() // counters are diagnostics; a failed scrape only blanks them
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the loader: back-to-back batches
		defer wg.Done()
		var once sync.Once
		defer once.Do(func() { close(firstAck) })
		c := w.srv.NewClient(w.opt.Tracer)
		start := time.Now()
		for i, body := range w.bodies {
			if readerDone.Load() {
				break
			}
			out.Attempted++
			d, err := c.Append(sz.ReaderOps+i, body)
			if err != nil {
				appendErrs = append(appendErrs, err.Error())
				break // the mirror comparison needs an unbroken prefix
			}
			out.AppendMS = append(out.AppendMS, float64(d.Nanoseconds())/1e6)
			w.acked++
			once.Do(func() { close(firstAck) })
		}
		out.AppendBusy = time.Since(start)
	}()
	go func() { // the analyst: re-advise the cycle
		defer wg.Done()
		defer readerDone.Store(true)
		<-firstAck
		c := w.srv.NewClient(w.opt.Tracer)
		start := time.Now()
		for i := 0; i < sz.ReaderOps; i++ {
			reader.advise(c, i, ReaderContexts[i%len(ReaderContexts)])
		}
		out.AdviseBusy = time.Since(start)
	}()
	wg.Wait()
	after, _ := w.srv.Scrape()
	out.ServerCounters = scrapeDelta(before, after)
	out.merge(&reader, sz.ReaderOps)
	out.RowsAcked = w.acked * sz.BatchRows
	for _, e := range appendErrs {
		out.fail("%s", e)
	}
	for _, s := range reader.served {
		checkServedSums(out, s.sdl, s.result)
	}
	out.BootMS, out.ServerFlags = w.srv.BootMS, w.srv.Flags
}

// check replays the acknowledged appends on an in-process mirror of the server's
// table with a warm advisor riding along — the delta-splice path —
// and, at sample points, holds the warm advisor's answers against
// fresh advisors. With every batch applied, the quiesced server must
// answer each reader context exactly as the mirror does.
func (w *appendMix) check(out *Outcome) {
	mirror := charles.GenerateVOC(w.opt.Sizes.Rows, DataSeed)
	warm := charles.NewAdvisor(mirror, charles.DefaultConfig())
	compare := func(when string, deep []int) []*charles.Result {
		results := make([]*charles.Result, len(ReaderContexts))
		for i, sdl := range ReaderContexts {
			res, err := warm.AdviseString(sdl)
			if err != nil {
				out.violate("%s: warm advise %s: %v", when, sdl, err)
				continue
			}
			results[i] = res
		}
		for _, i := range deep {
			if results[i] != nil {
				deepCheck(out, when+" "+ReaderContexts[i], mirror, results[i].Context, results[i])
			}
		}
		return results
	}
	compare("before appends", nil)
	// Sample points: every tenth batch under -check, else the end only.
	for b, batch := range w.plan.Batches[:w.acked] {
		if err := mirror.AppendRows(batch...); err != nil {
			out.violate("mirror append %d: %v", b, err)
			return
		}
		if w.opt.Deep && b%10 == 9 && b != w.acked-1 {
			compare(fmt.Sprintf("after batch %d", b+1), pickDeep(len(ReaderContexts), 1, int64(b), false))
		}
	}
	final := compare("after the last batch", pickDeep(len(ReaderContexts), w.opt.Sizes.DeepChecks, w.opt.Seed, w.opt.Deep))
	c := w.srv.NewClient(nil)
	var rendered []string
	for i, sdl := range ReaderContexts {
		rep, err := c.Advise(-1, sdl)
		if err != nil {
			out.violate("quiesced advise %s: %v", sdl, err)
			continue
		}
		rendered = append(rendered, string(canonical(rep.Job.Result)))
		if final[i] != nil && rendered[len(rendered)-1] != string(canonical(RenderJSON(final[i], mirror.Name()))) {
			out.violate("%s: the server's JSON result after all appends differs from the in-process mirror's", sdl)
		}
	}
	out.OutputDigest = digestOf(rendered)
}

func (w *appendMix) peakRSSMB() float64 { return w.srv.PeakRSSMB() }

func (w *appendMix) close() {
	if w.srv != nil {
		w.srv.Stop()
	}
}
