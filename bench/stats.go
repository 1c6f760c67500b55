package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// Measurement discipline shared by every workload. The host is a small
// shared VM whose speed swings by up to half over tens of seconds as other
// tenants load it, which moves every absolute timing of a 15-second run by
// more than any useful regression bound. So each workload runs the system
// under test and a fixed reference doing the same operations in alternating
// slices, and its speed is reported as the median over slice pairs of the
// reference's cost over the system's: both sides see the same machine, so
// the ratio moves several times less than the absolute rates do. Set-up is
// paired the same way, with a reference set-up beside each system set-up.

const (
	warmupFrac = 0.1 // share of the measured phase spent warming up
	execSlice  = 100 * time.Millisecond

	// Set-up pairs per run: at least minSetups, and cheap ones repeat until
	// the system's set-ups have taken setupBudget, up to maxSetups.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// refSetupSecs is each workload's reference set-up time at scale 1, as
// measured on the host the bounds were calibrated on (a 2-vCPU KVM guest on
// a Xeon with AVX-512 and a 105 MB L3). setup_s is the measured
// system-over-reference ratio times this constant, which gives the ratio the
// unit of seconds without letting the host's speed at run time into it.
var refSetupSecs = map[string]float64{
	"search-http":  0.25,  // launching the reference service and loading the lists
	"search-swap":  0.35,  // loadRef beside the scalar queries, at 8x the workload's own corpus
	"search-exec":  0.13,  // buildIndex over the posting lists
	"pairs-skewed": 0.24,  // buildIndex over the pair pool
	"triangles":    0.018, // buildIndex over the forward neighbor lists
}

// quantile returns the p-quantile of sorted values, interpolating between
// neighbours as Python's statistics.quantiles does by default, so that every
// median and quartile here follows the rule the calibration uses.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	x := p * float64(n+1)
	i := int(math.Floor(x))
	switch {
	case i < 1:
		return sorted[0]
	case i >= n:
		return sorted[n-1]
	}
	return sorted[i-1] + (x-float64(i))*(sorted[i]-sorted[i-1])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quiesce collects garbage and returns freed memory to the OS, so that one
// phase's garbage is not charged to the next.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setups is a run's set-up times in seconds: the system's, and the
// reference's run next to each.
type setups struct {
	sys, ref []float64
}

// ratio is the median over pairs of the system's set-up time over the
// reference's.
func (s setups) ratio() float64 {
	r := make([]float64, len(s.sys))
	for k := range r {
		r[k] = s.sys[k] / s.ref[k]
	}
	return median(r)
}

// pairedSetups runs the system's set-up and the reference's in turn,
// swapping which goes first in every pair. Before each one, release drops
// what that side's previous set-up made and quiesce collects it, outside the
// timing.
func pairedSetups(release func(sys bool), sys, ref func() error) (setups, error) {
	var s setups
	var spent time.Duration
	for k := 0; k < minSetups || spent < setupBudget && k < maxSetups; k++ {
		for j := 0; j < 2; j++ {
			isSys := (j == 0) == (k%2 == 0)
			build := ref
			if isSys {
				build = sys
			}
			release(isSys)
			quiesce()
			start := time.Now()
			if err := build(); err != nil {
				return setups{}, err
			}
			el := time.Since(start)
			if isSys {
				spent += el
				s.sys = append(s.sys, el.Seconds())
			} else {
				s.ref = append(s.ref, el.Seconds())
			}
		}
	}
	return s, nil
}

// slice is what one side measured in one slice of a paired run.
type slice struct {
	rate float64 // work units per second
	p50  float64 // median latency, ns
}

// paired is a run of the system and the reference in alternating slices.
type paired struct {
	sys, ref          []slice
	attempted, failed int // the system's operations
}

// speedup is the median over slice pairs of the system's rate over the
// reference's.
func (p *paired) speedup() float64 {
	r := make([]float64, len(p.sys))
	for k := range r {
		r[k] = p.sys[k].rate / p.ref[k].rate
	}
	return median(r)
}

// p50Speedup is the median over slice pairs of the reference's median
// latency over the system's.
func (p *paired) p50Speedup() float64 {
	r := make([]float64, len(p.sys))
	for k := range r {
		r[k] = p.ref[k].p50 / p.sys[k].p50
	}
	return median(r)
}

func medianOf(s []slice, f func(slice) float64) float64 {
	v := make([]float64, len(s))
	for k := range s {
		v[k] = f(s[k])
	}
	return median(v)
}

// alternate runs measure for the system and the reference in turn until
// done returns true after a pair, swapping which goes first in every pair so
// that neither always runs on the other's leftovers.
func alternate(done func() bool, measure func(sys bool) (slice, error)) (*paired, error) {
	p := &paired{}
	for k := 0; k == 0 || !done(); k++ {
		var s, r slice
		for j := 0; j < 2; j++ {
			isSys := (j == 0) == (k%2 == 0)
			x, err := measure(isSys)
			if err != nil {
				return nil, err
			}
			if isSys {
				s = x
			} else {
				r = x
			}
		}
		p.sys, p.ref = append(p.sys, s), append(p.ref, r)
	}
	return p, nil
}

// forDur returns a done func for alternate that turns true d after the call.
func forDur(d time.Duration) func() bool {
	start := time.Now()
	return func() bool { return time.Since(start) >= d }
}

// pairedLoop runs the system's op and the reference's op back to back in
// alternating slices of length sl for d, after a warm-up of warmupFrac·d.
// op(i) runs the i-th operation and reports whether its result matched the
// oracle; each operation counts as `work` units toward the rate. A wrong
// system result counts as failed; a wrong reference result is an error.
func pairedLoop(d, sl time.Duration, work float64, sys, ref func(i int) bool) (*paired, error) {
	quiesce()
	var attempted, failed int
	next := [2]int{} // the next operation of the system and the reference
	lat := make([]float64, 0, 1<<16)
	measure := func(isSys bool) (slice, error) {
		op, side := ref, 1
		if isSys {
			op, side = sys, 0
		}
		lat = lat[:0]
		start := time.Now()
		for len(lat) == 0 || time.Since(start) < sl {
			t0 := time.Now()
			ok := op(next[side])
			lat = append(lat, float64(time.Since(t0).Nanoseconds()))
			next[side]++
			switch {
			case isSys:
				attempted++
				if !ok {
					failed++
				}
			case !ok:
				return slice{}, fmt.Errorf("the scalar reference disagrees with the oracle")
			}
		}
		el := time.Since(start)
		return slice{float64(len(lat)) * work / el.Seconds(), median(lat)}, nil
	}
	warm := time.Duration(float64(d) * warmupFrac)
	if _, err := alternate(forDur(warm), measure); err != nil {
		return nil, err
	}
	attempted, failed = 0, 0
	p, err := alternate(forDur(d-warm), measure)
	if err != nil {
		return nil, err
	}
	p.attempted, p.failed = attempted, failed
	return p, nil
}

// endToEnd appends the end-to-end metrics every workload reports: the
// set-up time, the speedup over the reference from speed's rates and from
// lat's median latencies, and the memory per element. It also records the
// absolute times, rates and latencies behind them, which are printed but not
// gated. refSecs is the workload's entry in refSetupSecs.
func (r *result) endToEnd(cfg config, su setups, refSecs float64, speed, lat *paired, bytesPerElem float64) {
	r.add("setup_s", su.ratio()*refSecs*cfg.scale, "s")
	r.add("speedup_x", speed.speedup(), "x")
	r.add("p50_speedup_x", lat.p50Speedup(), "x")
	r.add("bytes_per_elem", bytesPerElem, "B/elem")
	rate := func(s slice) float64 { return s.rate }
	p50 := func(s slice) float64 { return s.p50 / 1e3 }
	r.info = append(r.info,
		metric{"setup_wall_s", median(su.sys), "s"},
		metric{"ref_setup_wall_s", median(su.ref), "s"},
		metric{"ops_per_s", medianOf(speed.sys, rate), "1/s"},
		metric{"ref_ops_per_s", medianOf(speed.ref, rate), "1/s"},
		metric{"lat_p50_us", medianOf(lat.sys, p50), "us"},
		metric{"ref_lat_p50_us", medianOf(lat.ref, p50), "us"})
}
