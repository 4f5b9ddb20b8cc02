package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent asks the kernel to kill the child should the harness
// die without running its deferred clean-up (a SIGKILL from a timeout).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
