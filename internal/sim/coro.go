//go:build go1.23

package sim

import "iter"

// start makes body p's coroutine. iter.Pull hands back the two ends of a
// runtime coroutine switch: resuming p runs body on p's goroutine while the
// driver blocks, and p's yield switches straight back to the driver, both on
// the same OS thread with no trip through the Go scheduler's run queue.
// body first runs on p's first resume; stopping p before then discards it
// without running body, and stopping a parked p makes its yield return
// false.
func (p *Proc) start(body func()) {
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body()
	})
}
