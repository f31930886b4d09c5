package main

import (
	"syscall"
	"time"
)

// preciseSleep sleeps for about d. time.Sleep wakes on the runtime's network
// poller, whose timeouts have millisecond resolution, so it oversleeps by up
// to a millisecond; nanosleep(2) oversleeps by the kernel's timer slack,
// about 0.05-0.1 ms. The thread blocks in the system call and the runtime
// hands its processor to other goroutines.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
