package baseline

import "progxe/internal/smj"

// Oracle evaluates the problem with the reference blocking plan (JF-SL: full
// join, then one skyline pass) and returns the complete, correct result set. Tests use it as the
// ground truth every other engine must match.
func Oracle(p *smj.Problem) ([]smj.Result, error) {
	var c smj.Collector
	if _, err := (&JFSL{}).Run(p, &c); err != nil {
		return nil, err
	}
	return c.Results, nil
}
