package core

import (
	"charles/internal/sdl"
	"charles/internal/seg"
)

// Stream is the lazy generation engine sketched in Section 5.2:
// "the system would only generate a small set of queries, and create
// more upon request". It yields the same segmentations as HBCuts but
// one at a time — first the initial single-attribute candidates
// (ranked by the configured score), then one composed segmentation
// per Next call until a stopping condition fires. The trade-off the
// paper accepts is that a lazy stream cannot be globally ranked.
type Stream struct {
	st      *hbState
	pending []Scored
	done    bool
}

// NewStream seeds the stream: the initial cuts are computed eagerly
// (they are cheap and every one is an answer); composition work is
// deferred to Next.
func NewStream(ev *seg.Evaluator, context sdl.Query, cfg Config) (*Stream, error) {
	st, err := newHBState(nil, ev, context, cfg, nil)
	if err != nil {
		return nil, err
	}
	s := &Stream{st: st}
	for _, c := range st.cand {
		s.pending = append(s.pending, newScored(c.seg, st.cfg.Score))
	}
	sortScored(s.pending)
	return s, nil
}

// Next returns the next segmentation. The boolean is false when the
// stream is exhausted (the HB-cuts stopping conditions fired).
func (s *Stream) Next() (Scored, bool, error) {
	if len(s.pending) > 0 {
		out := s.pending[0]
		s.pending = s.pending[1:]
		return out, true, nil
	}
	if s.done {
		return Scored{}, false, nil
	}
	composed, _, err := s.st.step()
	if err != nil {
		return Scored{}, false, err
	}
	if composed == nil {
		s.done = true
		return Scored{}, false, nil
	}
	return newScored(composed, s.st.cfg.Score), true, nil
}

// Drain consumes the remainder of the stream and returns it ranked,
// matching HBCuts' eager output for the already-consumed prefix plus
// the rest.
func (s *Stream) Drain() ([]Scored, error) {
	var out []Scored
	for {
		sc, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			sortScored(out)
			return out, nil
		}
		out = append(out, sc)
	}
}

// Result exposes the run statistics accumulated so far (iterations,
// INDEP evaluations, stop reason once done).
func (s *Stream) Result() *Result { return s.st.res }
