//go:build !go1.23

package sim

// The kernel switches processes as iter.Pull coroutines (coro.go), which
// need Go 1.23 or newer. This undefined name makes an older toolchain fail
// with a message saying so.
var _ = simKernelRequiresGo1_23
