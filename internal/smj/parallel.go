package smj

import "context"

// parallelismKey carries a per-run parallelism request through the context
// of RunContext, so callers that hold only an Engine value (the query
// service routing a per-request "workers" knob, for example) can ask for a
// worker count without reconstructing the engine.
type parallelismKey struct{}

// WithParallelism returns a context requesting that engines run with n
// worker goroutines. Engines that support parallel execution (the ProgXe
// core) read the value in RunContext, where it overrides their configured
// worker count; n = 0 forces a serial run. Engines without a parallel path
// ignore it. The request never changes the result stream: parallel ProgXe
// runs are byte-identical to serial ones.
func WithParallelism(ctx context.Context, n int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, parallelismKey{}, n)
}

// ParallelismFrom reports the worker count requested via WithParallelism,
// and whether one was set at all.
func ParallelismFrom(ctx context.Context) (int, bool) {
	if ctx == nil {
		return 0, false
	}
	n, ok := ctx.Value(parallelismKey{}).(int)
	return n, ok
}
