// Package engines is the single name→constructor registry for every engine
// surface in this repository (the progxe CLI's -engine flag and the query
// service's per-request engine selection), so the accepted names cannot
// drift between them.
package engines

import (
	"fmt"
	"strings"

	"progxe/internal/baseline"
	"progxe/internal/core"
	"progxe/internal/smj"
)

// names lists the accepted engine names in presentation order.
var names = []string{
	"progxe", "progxe+", "progxe-noorder", "progxe-kd",
	"jfsl", "jfsl+", "ssmj", "ssmj-strict", "saj",
}

// New constructs the engine registered under name (case-insensitive).
// The ProgXe variants honor opts (grid resolutions, trace, seed); the
// baselines take no tuning and ignore it. Every call returns a fresh engine
// value, so per-run state never crosses callers.
func New(name string, opts core.Options) (smj.Engine, error) {
	switch strings.ToLower(name) {
	case "progxe":
		return core.New(opts), nil
	case "progxe+":
		opts.PushThrough = true
		return core.New(opts), nil
	case "progxe-noorder":
		opts.Ordering = core.OrderRandom
		return core.New(opts), nil
	case "progxe-kd":
		opts.Partitioning = core.PartitionKD
		return core.New(opts), nil
	case "jfsl":
		return &baseline.JFSL{}, nil
	case "jfsl+":
		return &baseline.JFSL{PushThrough: true}, nil
	case "ssmj":
		// The paper's faithful configuration: two-batch output with the
		// documented §VII false-positive caveat, counted in the stats.
		return &baseline.SSMJ{}, nil
	case "ssmj-strict":
		return &baseline.SSMJ{Strict: true}, nil
	case "saj":
		return &baseline.SAJ{}, nil
	default:
		return nil, fmt.Errorf("unknown engine %q (have %s)", name, strings.Join(names, ", "))
	}
}

// Names returns the accepted engine names.
func Names() []string { return append([]string(nil), names...) }
