//go:build !linux

package main

import "time"

// preciseSleep sleeps for about d; only the Linux build sleeps more
// precisely than time.Sleep.
func preciseSleep(d time.Duration) { time.Sleep(d) }
