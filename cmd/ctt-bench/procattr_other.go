//go:build !linux

package main

import "os/exec"

// dieWithParent has no portable form; elsewhere the deferred clean-up
// and the signal handler are the only guards.
func dieWithParent(*exec.Cmd) {}
