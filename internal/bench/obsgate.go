package bench

import (
	"fmt"
	"time"
)

// ObsOverhead measures the observability tax on one figure's workload: the
// first ProgXe-family engine of the figure is run with observability fully
// enabled (profiler with span recording, trace recorder, emission timeline)
// and fully disabled, interleaved so ambient load hits both arms equally,
// keeping the best total of each arm over repeats rounds. The returned
// millisecond totals back the progxe-bench -obs-gate check.
func ObsOverhead(figID string, repeats int) (onMS, offMS float64, err error) {
	f, err := FigureByID(figID)
	if err != nil {
		return 0, 0, err
	}
	var spec EngineSpec
	for _, s := range f.Engines {
		if s.opts != nil {
			spec = s
			break
		}
	}
	if spec.opts == nil {
		return 0, 0, fmt.Errorf("bench: figure %s has no ProgXe-family engine to gate", figID)
	}
	p, err := f.Workload.Problem()
	if err != nil {
		return 0, 0, err
	}
	if repeats < 1 {
		repeats = 1
	}

	// Warm-up round outside the measurement, so neither arm pays the
	// first-touch cost.
	runOn(spec, f.Workload, p, obsOff)

	var bestOff, bestOn time.Duration
	for i := 0; i < repeats; i++ {
		off := runOn(spec, f.Workload, p, obsOff)
		if off.Err != nil {
			return 0, 0, off.Err
		}
		on := runOn(spec, f.Workload, p, obsFull)
		if on.Err != nil {
			return 0, 0, on.Err
		}
		if i == 0 || off.Total < bestOff {
			bestOff = off.Total
		}
		if i == 0 || on.Total < bestOn {
			bestOn = on.Total
		}
	}
	return float64(bestOn) / float64(time.Millisecond),
		float64(bestOff) / float64(time.Millisecond), nil
}
