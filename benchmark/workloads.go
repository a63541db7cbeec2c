package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"duopacity"
	"duopacity/internal/checkfarm"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
)

//go:embed workloads.json
var workloadsJSON []byte

// suite is workloads.json: the frozen workload definitions. Everything a
// run does is a function of this file and the seed.
type suite struct {
	Connections int        `json:"connections"`
	Workers     int        `json:"workers"`
	PollMS      int        `json:"poll_ms"`
	Setups      int        `json:"setups"`
	Workloads   []workload `json:"workloads"`
}

type workload struct {
	Name   string      `json:"name"`
	Kind   string      `json:"kind"` // "follow" or "farm"
	Why    string      `json:"why"`
	Follow *followSpec `json:"follow,omitempty"`
	Farm   *farmSpec   `json:"farm,omitempty"`
}

// followSpec describes streams recorded from an engine and the STREAM
// session they are fed through.
type followSpec struct {
	Record               harness.Workload      `json:"record"`
	StreamsPerConnection int                   `json:"streams_per_connection"`
	Criteria             []string              `json:"criteria"` // hello aliases
	Retire               int                   `json:"retire"`
	SaturationShare      float64               `json:"saturation_share"`
	PacedEventsPerS      float64               `json:"paced_events_per_s"`
	criteria             []duopacity.Criterion // parsed Criteria
}

// farmSpec describes one job per engine, built from the Job template.
type farmSpec struct {
	Engines []string `json:"engines"`
	// InPlaceEngines are expected to violate du-opacity; every other
	// engine is deferred-update and must not.
	InPlaceEngines []string          `json:"in_place_engines,omitempty"`
	Job            checkfarm.JobSpec `json:"job"`
	Plans          int               `json:"plans,omitempty"`
	PlanShape      harness.Workload  `json:"plan_shape,omitempty"`
}

func loadSuite(quick bool) (*suite, error) {
	var s suite
	dec := json.NewDecoder(strings.NewReader(string(workloadsJSON)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		switch {
		case w.Kind == "follow" && w.Follow != nil:
			for _, name := range w.Follow.Criteria {
				var c duopacity.Criterion
				if err := c.UnmarshalText([]byte(name)); err != nil {
					return nil, fmt.Errorf("workloads.json: %s: %w", w.Name, err)
				}
				w.Follow.criteria = append(w.Follow.criteria, c)
			}
		case w.Kind == "farm" && w.Farm != nil:
		default:
			return nil, fmt.Errorf("workloads.json: %s: kind %q without its payload", w.Name, w.Kind)
		}
		if quick {
			w.shrink()
		}
	}
	if quick {
		s.Setups = 1
	}
	return &s, nil
}

// shrink scales a workload to about 1/50 for the self-test.
func (w *workload) shrink() {
	div := func(n, min int) int {
		if n/50 > min {
			return n / 50
		}
		return min
	}
	if f := w.Follow; f != nil {
		f.StreamsPerConnection = div(f.StreamsPerConnection, 1)
		if f.StreamsPerConnection == 1 {
			f.Record.TxnsPerGoroutine = div(f.Record.TxnsPerGoroutine, 20)
		}
	}
	if f := w.Farm; f != nil {
		if c := f.Job.Certify; c != nil {
			c.Config.Episodes = div(c.Config.Episodes, 8)
		}
		if f.Plans > 0 {
			f.Plans = 2
			f.Job.Explore.Config.MaxSchedules = 256
		}
	}
}

func (s *suite) find(name string) *workload {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

func (f *followSpec) hello(quiet bool) string {
	h := fmt.Sprintf("STREAM %s retire=%d", strings.Join(f.Criteria, ","), f.Retire)
	if quiet {
		h += " quiet"
	}
	return h
}

// subSeed derives independent seeds for the parts of one run's input.
func subSeed(seed int64, a, b int) int64 {
	return seed*1_000_003 + int64(a)*10_007 + int64(b)*101 + 1
}

// stream is one recorded history in the forms the run needs: the events
// (in-process replay), their histio lines (what goes on the wire), and
// the oracle's expectation for every echo line.
type stream struct {
	events []duopacity.Event
	wire   []byte // event lines, newline-terminated, without END
	ends   []int  // ends[k] = offset in wire just past line k
	isRes  []bool
	// suffix[k] is the per-criterion status text the server must echo
	// after response event k (nil for invocations); set by the oracle.
	suffix [][]byte
	// violatedAt is the index of the first event any criterion rejects,
	// -1 when every prefix is accepted.
	violatedAt int
	// violations is how many criteria reject the whole stream, as DONE reports it.
	violations int
}

// recordStream runs the workload under the deterministic stepper and
// renders the recorded events as wire lines.
func recordStream(w harness.Workload) (*stream, error) {
	h, _, err := harness.RunInterleaved(w)
	if err != nil {
		return nil, err
	}
	s := &stream{events: h.Events(), violatedAt: -1}
	s.ends = make([]int, len(s.events))
	s.isRes = make([]bool, len(s.events))
	var b strings.Builder
	for k, e := range s.events {
		line := histio.FormatEvent(e)
		s.isRes[k] = strings.HasPrefix(line, "res ")
		b.WriteString(line)
		b.WriteByte('\n')
		s.ends[k] = b.Len()
	}
	s.wire = []byte(b.String())
	return s, nil
}

// lines returns the wire bytes of events [from, to).
func (s *stream) lines(from, to int) []byte {
	start := 0
	if from > 0 {
		start = s.ends[from-1]
	}
	return s.wire[start:s.ends[to-1]]
}

// followInput is what one follow workload feeds: a list of streams per
// connection, each connection's distinct.
type followInput struct {
	conns [][]*stream
}

func (f *followSpec) generate(seed int64, connections int) (*followInput, error) {
	in := &followInput{conns: make([][]*stream, connections)}
	for c := range in.conns {
		for i := 0; i < f.StreamsPerConnection; i++ {
			w := f.Record
			w.Seed = subSeed(seed, c, i)
			s, err := recordStream(w)
			if err != nil {
				return nil, err
			}
			in.conns[c] = append(in.conns[c], s)
		}
	}
	return in, nil
}

// generate builds the ordered job list of one farm round, normalized so
// shard counts and shard computations are pure functions of each spec.
func (f *farmSpec) generate(seed int64) ([]checkfarm.JobSpec, error) {
	var specs []checkfarm.JobSpec
	for i, engine := range f.Engines {
		spec := f.Job
		switch spec.Kind {
		case checkfarm.KindCertify:
			c := *spec.Certify
			c.Config.Engine = engine
			c.Config.Seed = subSeed(seed, i, 0)
			spec.Certify = &c
		case checkfarm.KindExplore:
			e := *spec.Explore
			e.Engine = engine
			e.Plans = nil
			for p := 0; p < f.Plans; p++ {
				shape := f.PlanShape
				// The same plans for every engine: engines differ, programs do not.
				shape.Seed = subSeed(seed, 0, p)
				e.Plans = append(e.Plans, checkfarm.WirePlanOf(harness.PlanOf(shape)))
			}
			spec.Explore = &e
		default:
			return nil, fmt.Errorf("farm job kind %q is not benchmarked", spec.Kind)
		}
		norm, err := spec.Normalize()
		if err != nil {
			return nil, err
		}
		specs = append(specs, norm)
	}
	return specs, nil
}

func (f *farmSpec) inPlace(engine string) bool {
	for _, e := range f.InPlaceEngines {
		if e == engine {
			return true
		}
	}
	return false
}
