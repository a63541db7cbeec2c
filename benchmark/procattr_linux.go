package main

import "syscall"

// childAttr makes the kernel kill a child should the benchmark die
// without running its own teardown (SIGKILL, a crashed driver).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
