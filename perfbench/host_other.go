//go:build !linux

package main

import "time"

var clockStart = time.Now()

// threadCPU falls back to wall time where thread CPU time is not read.
func threadCPU() time.Duration { return time.Since(clockStart) }

// cpuTicks reports no stolen time where it is not read.
func cpuTicks() (steal, total float64) { return 0, 0 }
