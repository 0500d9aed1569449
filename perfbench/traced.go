package main

import (
	"fmt"

	"decorr/internal/trace"
)

// untraced runs f with the span recorder detached: the traced run's
// reference phase, whose latency the tracing overhead is measured against.
func (b *bench) untraced(f func()) {
	rec := b.rec
	b.rec = nil
	defer func() { b.rec = rec }()
	f()
}

var driverRetries = trace.Metrics.Counter("driver.retries")

// finishTraced reports the per-layer metrics every traced run shares and
// writes the spans as a Chrome trace under .bench_build.
func (b *bench) finishTraced(untraced, traced []sample) error {
	spans := b.rec.snapshot()
	u, t := median(latMs(untraced, nil)), median(latMs(traced, nil))
	b.metric("trace.overhead_pct", (t/u-1)*100)
	b.metric("loadgen.send_delay_p99_ms", sendDelayP99(traced))
	b.metric("loadgen.op_self_us", opSelfUs(spans))
	b.metric("driver.retries", float64(driverRetries.Value()))
	logf("tracing overhead: p50 %.3f ms untraced (n=%d) vs %.3f ms traced (n=%d)", u, len(untraced), t, len(traced))
	path, err := b.scratchPath(fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	if err != nil {
		return err
	}
	if err := writeChrome(path, spans); err != nil {
		return err
	}
	logf("trace: %d spans (%d dropped) in %s", len(spans), b.rec.dropped, path)
	return nil
}
